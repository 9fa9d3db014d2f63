// Package solvepipe is the fault-tolerant solve pipeline of the
// reproduction: it wraps the per-step ILP solve (build + branch and
// bound) in a retry ladder that trades schedule fidelity for
// survivability, the way the paper trades grid resolution for memory
// (Eq. 6).
//
// Each rung of the ladder re-solves the quasi off-line instance under a
// coarser time-scaling factor and a larger (exponentially backed-off)
// wall-clock budget. A rung can fail by budget exhaustion without an
// incumbent, by the pre-build model-size guard, by proven grid
// infeasibility, or by a recovered solver panic — all of which are
// retryable. A done caller context is a hard stop and is never retried.
// When every rung fails, the Outcome carries the full per-attempt
// provenance, and the step engine (Stepper, step.go) degrades the step
// to the chosen basic-policy schedule instead of failing the run.
package solvepipe

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/ilpsched"
	"repro/internal/mip"
	"repro/internal/obs"
	"repro/internal/schedule"
)

// FailureKind classifies why a solve attempt produced no usable schedule.
type FailureKind int

const (
	// FailNone marks a successful attempt.
	FailNone FailureKind = iota
	// FailTimeout: the attempt's budget (wall clock or node limit) ran out
	// before any feasible schedule was found.
	FailTimeout
	// FailTooLarge: the model-size guard refused to build the model.
	FailTooLarge
	// FailInfeasible: the grid instance was proven infeasible (including
	// a horizon too tight for the scaled durations).
	FailInfeasible
	// FailPanic: the solver panicked; the panic was recovered and
	// converted into a *PanicError.
	FailPanic
	// FailCanceled: the caller's context was done. Never retried.
	FailCanceled
	// FailError: any other error (malformed instance, I/O). Never retried.
	FailError
)

func (k FailureKind) String() string {
	switch k {
	case FailNone:
		return "none"
	case FailTimeout:
		return "timeout"
	case FailTooLarge:
		return "too-large"
	case FailInfeasible:
		return "infeasible"
	case FailPanic:
		return "panic"
	case FailCanceled:
		return "canceled"
	default:
		return "error"
	}
}

// Retryable reports whether the ladder may try another rung after this
// failure. Coarsening the grid shrinks the model (helps too-large),
// relaxes the slot rounding (can cure grid infeasibility) and reduces
// the search space (helps timeouts); panics get a fresh solver state.
func (k FailureKind) Retryable() bool {
	switch k {
	case FailTimeout, FailTooLarge, FailInfeasible, FailPanic:
		return true
	}
	return false
}

// PanicError is a solver panic recovered by the pipeline.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking goroutine
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("solvepipe: solver panicked: %v", e.Value)
}

// Attempt records one rung of the retry ladder.
type Attempt struct {
	// Scale is the Eq. 6 time-scaling factor of the rung.
	Scale int64
	// Budget is the wall-clock budget granted to the rung.
	Budget time.Duration
	// Failure classifies the rung's outcome (FailNone on success).
	Failure FailureKind
	// Err is the rung's error (nil on success).
	Err error
	// Elapsed is the rung's measured wall-clock time.
	Elapsed time.Duration
}

// Outcome is the result of a full pipeline run.
type Outcome struct {
	// Solution is the winning solution, nil when the ladder was
	// exhausted or the context was canceled.
	Solution *ilpsched.Solution
	// Scale is the time-scaling factor of the winning attempt.
	Scale int64
	// Attempts holds every rung tried, in order, including the winner.
	Attempts []Attempt
	// Err is the last rung's error when Solution is nil.
	Err error
	// CacheHit reports the solution was served from a Stepper's step
	// cache without building or solving a model.
	CacheHit bool
	// IncumbentReused reports that some rung seeded its incumbent from
	// Config.ReuseSeed rather than Config.Seed.
	IncumbentReused bool
	// Presolve carries the winning rung's reduction stats (nil when
	// presolve was off, the ladder failed, or the cache answered).
	Presolve *ilpsched.PresolveStats
}

// Failed reports whether the pipeline produced no schedule.
func (o *Outcome) Failed() bool { return o == nil || o.Solution == nil }

// Retries returns the number of rungs beyond the first.
func (o *Outcome) Retries() int {
	if o == nil || len(o.Attempts) == 0 {
		return 0
	}
	return len(o.Attempts) - 1
}

// LastFailure returns the failure kind of the final attempt (FailNone
// when the pipeline succeeded on its last rung).
func (o *Outcome) LastFailure() FailureKind {
	if o == nil || len(o.Attempts) == 0 {
		return FailNone
	}
	return o.Attempts[len(o.Attempts)-1].Failure
}

// SolveFunc solves a built model under the given options. The pipeline's
// base SolveFunc calls (*ilpsched.Model).SolveCtx; Config.Hook may wrap
// it with middleware (fault injection in tests).
type SolveFunc func(ctx context.Context, m *ilpsched.Model, opt mip.Options) (*ilpsched.Solution, error)

// Config parameterizes the pipeline.
type Config struct {
	// Budget is the wall-clock budget of the first attempt (soft stop:
	// the solver keeps its incumbent). Default 15s.
	Budget time.Duration
	// Retries is the number of extra rungs after the first attempt.
	Retries int
	// BackoffFactor multiplies the budget on every retry (default 2).
	BackoffFactor float64
	// ScaleFactor multiplies the time-scaling factor on every retry
	// (default 2), re-rounded to Scaling.RoundTo.
	ScaleFactor float64
	// Scaling chooses the first rung's scale per Eq. 6 (zero value:
	// ilpsched.DefaultScaling). FixedScale > 0 overrides it.
	Scaling    ilpsched.Scaling
	FixedScale int64
	// Limit is the pre-build model-size guard (zero = unguarded).
	Limit ilpsched.SizeLimit
	// MIP are the base branch-and-bound options. TimeLimit is overridden
	// by the rung budget; Incumbent is overridden when Seed is set.
	MIP mip.Options
	// Seed, if non-nil, warm-starts every rung's search with this
	// feasible schedule (e.g. the best basic-policy schedule).
	Seed *schedule.Schedule
	// ReuseSeed, if non-nil, is a second incumbent candidate — typically
	// the previous step's compacted ILP schedule restricted to the jobs
	// still waiting. Per rung, the candidate with the lower grid
	// objective seeds the search; when ReuseSeed wins, the
	// "step.incumbent.reused" counter is bumped and the Outcome flagged.
	ReuseSeed *schedule.Schedule
	// PresolveOff disables the ilpsched presolve pass. Presolve is ON by
	// default: each rung builds the reduced model via
	// BuildPresolvedGuarded (with Seed and ReuseSeed as upper-bound
	// schedules), which also means the size guard applies to the
	// *reduced* model, so instances that presolve makes tractable are no
	// longer rejected.
	PresolveOff bool
	// Hook, if non-nil, wraps the base SolveFunc with middleware. This
	// is the fault-injection seam used by internal/faultinject; it also
	// admits caching or logging middleware.
	Hook func(SolveFunc) SolveFunc
	// Trace, if non-nil, receives a "solve.attempt" span per rung (solver
	// internals nest under it) and "solve.retry" events. Metrics, if
	// non-nil, accumulates the "mip.retries" counter and the
	// "solve.attempts" counter family labeled by failure kind.
	Trace   *obs.Tracer
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = 15 * time.Second
	}
	if c.BackoffFactor < 1 {
		c.BackoffFactor = 2
	}
	if c.ScaleFactor <= 1 {
		c.ScaleFactor = 2
	}
	if c.Scaling == (ilpsched.Scaling{}) {
		c.Scaling = ilpsched.DefaultScaling()
	}
	return c
}

// Classify maps a solve error to its FailureKind. Exported for callers
// that record provenance from errors outside the pipeline.
func Classify(ctx context.Context, err error) FailureKind {
	if err == nil {
		return FailNone
	}
	var pe *PanicError
	switch {
	case errors.As(err, &pe):
		return FailPanic
	case errors.Is(err, mip.ErrCanceled) || ctx.Err() != nil:
		return FailCanceled
	case errors.Is(err, ilpsched.ErrModelTooLarge):
		return FailTooLarge
	case errors.Is(err, ilpsched.ErrInfeasible),
		errors.Is(err, ilpsched.ErrHorizonTooTight):
		return FailInfeasible
	case errors.Is(err, ilpsched.ErrNoSchedule):
		// Limits ran out before any incumbent: a budget-class failure.
		return FailTimeout
	default:
		return FailError
	}
}

// Solve runs the retry ladder on the instance. It never panics: solver
// panics are recovered into *PanicError and classified like any other
// rung failure. The returned Outcome is non-nil even on total failure.
func Solve(ctx context.Context, cfg Config, inst *ilpsched.Instance) *Outcome {
	return solve(ctx, cfg, inst, nil)
}

// solve is Solve with an optional step cache (see Stepper): a cached
// fingerprint short-circuits the ladder, and only successful outcomes
// are stored, so a failed or degraded step never populates it.
func solve(ctx context.Context, cfg Config, inst *ilpsched.Instance, cache *stepCache) *Outcome {
	cfg = cfg.withDefaults()
	var key uint64
	if cache != nil {
		key = Fingerprint(inst)
		if sol, scale := cache.get(key, inst); sol != nil {
			cfg.Metrics.Counter("step.cache.hits").Inc()
			cfg.Trace.Emit("solve.cache.hit", obs.Int("scale", scale))
			return &Outcome{Solution: sol, Scale: scale, CacheHit: true}
		}
	}
	scale := cfg.firstScale(inst)
	budget := cfg.Budget
	out := &Outcome{}
	for rung := 0; ; rung++ {
		// The attempt is a span (begin/end pair), so the rung's solver
		// internals (mip.solve, lp spans) nest under it in the trace; the
		// end event carries the classified failure. A trace ID on ctx
		// (single-job batches in the serving path) joins the span to the
		// request's trace.
		spanFields := []obs.Field{
			obs.Int("rung", int64(rung)),
			obs.Int("scale", scale),
			obs.Int("budget_ms", budget.Milliseconds()),
		}
		if tid := obs.TraceIDFrom(ctx); tid != "" {
			spanFields = append(spanFields, obs.Str("trace", tid))
		}
		span := cfg.Trace.StartSpan("solve.attempt", spanFields...)
		att := out.attempt(ctx, cfg, inst, scale, budget, span, nil, nil)
		if att.Err == nil {
			if cache != nil {
				cache.put(key, inst, scale, out.Solution)
			}
			return out
		}
		if !att.Failure.Retryable() || rung >= cfg.Retries {
			return out
		}
		scale = nextScale(scale, cfg.ScaleFactor, cfg.Scaling.RoundTo)
		budget = time.Duration(float64(budget) * cfg.BackoffFactor)
		cfg.Metrics.Counter("mip.retries").Inc()
		cfg.Trace.Emit("solve.retry",
			obs.Int("rung", int64(rung+1)),
			obs.Int("scale", scale),
			obs.Int("budget_ms", budget.Milliseconds()),
			obs.Str("cause", att.Failure.String()))
	}
}

// firstScale is the time-scaling factor of the first rung.
func (c Config) firstScale(inst *ilpsched.Instance) int64 {
	if c.FixedScale > 0 {
		return c.FixedScale
	}
	return c.Scaling.TimeScale(inst)
}

// attempt runs one rung inside span and records it on the outcome: the
// Attempt, the reuse flag, the "solve.attempts" counter, and the
// solution or the error.
func (o *Outcome) attempt(ctx context.Context, cfg Config, inst *ilpsched.Instance, scale int64, budget time.Duration, span *obs.Span, stop func() bool, onImproved func(AnytimeIncumbent)) Attempt {
	start := time.Now()
	sol, rs, err := solveRung(ctx, cfg, inst, scale, budget, stop, onImproved)
	att := Attempt{Scale: scale, Budget: budget, Failure: Classify(ctx, err), Err: err, Elapsed: time.Since(start)}
	o.Attempts = append(o.Attempts, att)
	o.IncumbentReused = o.IncumbentReused || rs.incumbentReused
	span.End(obs.Str("failure", att.Failure.String()))
	cfg.Metrics.CounterVec("solve.attempts", "failure").With(att.Failure.String()).Inc()
	if err == nil {
		o.Solution, o.Scale, o.Presolve = sol, scale, rs.presolve
	}
	o.Err = err
	return att
}

// rungStats carries per-rung provenance out of solveRung.
type rungStats struct {
	presolve        *ilpsched.PresolveStats
	incumbentReused bool
}

// solveRung runs one rung: guarded build (presolved unless PresolveOff),
// incumbent seeding from the better of Seed and ReuseSeed, then the
// (possibly hook-wrapped) solve under the rung budget, with panic
// containment around the whole rung. stop, if non-nil, is polled at the
// solver's checkpoints; onImproved, if non-nil, receives every strictly
// improving incumbent decoded to a full-instance solution.
func solveRung(ctx context.Context, cfg Config, inst *ilpsched.Instance, scale int64, budget time.Duration, stop func() bool, onImproved func(AnytimeIncumbent)) (sol *ilpsched.Solution, rs rungStats, err error) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			sol, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	var m *ilpsched.Model
	if cfg.PresolveOff {
		m, err = ilpsched.BuildGuarded(inst, scale, cfg.Limit)
	} else {
		var seeds []*schedule.Schedule
		if cfg.Seed != nil {
			seeds = append(seeds, cfg.Seed)
		}
		if cfg.ReuseSeed != nil {
			seeds = append(seeds, cfg.ReuseSeed)
		}
		var st *ilpsched.PresolveStats
		m, st, err = ilpsched.BuildPresolvedGuarded(inst, scale, cfg.Limit, ilpsched.PresolveOptions{Seeds: seeds})
		if err == nil {
			rs.presolve = st
			cfg.Metrics.Counter("presolve.vars.fixed").Add(int64(st.VarsRemoved()))
			cfg.Metrics.Counter("presolve.rows.removed").Add(int64(st.RowsRemoved()))
		}
	}
	if err != nil {
		return nil, rs, err
	}
	opt := cfg.MIP
	opt.TimeLimit = budget
	if stop != nil {
		opt.Stop = stop
	}
	// Solver-internal observability (mip.nodes, mip.workers.active,
	// lp.warmstart.hits, ...) flows into the pipeline's sinks unless the
	// caller wired dedicated ones into the MIP options.
	if opt.Trace == nil {
		opt.Trace = cfg.Trace
	}
	if opt.Metrics == nil {
		opt.Metrics = cfg.Metrics
	}
	// Seed the search with the better of the two candidate incumbents.
	var chosen []float64
	bestObj := 0.0
	for _, cand := range []struct {
		s       *schedule.Schedule
		isReuse bool
	}{{cfg.Seed, false}, {cfg.ReuseSeed, true}} {
		if cand.s == nil {
			continue
		}
		inc, serr := m.IncumbentFromSchedule(cand.s)
		if serr != nil {
			continue
		}
		obj := m.ObjectiveOfVector(inc)
		if chosen == nil || obj < bestObj {
			chosen, bestObj = inc, obj
			rs.incumbentReused = cand.isReuse
		}
	}
	if chosen != nil {
		opt.Incumbent = chosen
	}
	if rs.incumbentReused {
		cfg.Metrics.Counter("step.incumbent.reused").Inc()
	}
	if onImproved != nil {
		var streamedBest float64
		streamedAny := false
		prev := opt.OnIncumbent
		opt.OnIncumbent = func(obj float64, x []float64) {
			if prev != nil {
				prev(obj, x)
			}
			if streamedAny && obj >= streamedBest {
				return
			}
			// Decode on the worker goroutine: a malformed vector (or a
			// compaction failure) skips this incumbent rather than
			// poisoning the search.
			dec, derr := m.SolutionFromVector(x, obj)
			if derr != nil {
				cfg.Trace.Emit("solve.anytime.decode.failed", obs.Str("err", derr.Error()))
				return
			}
			streamedBest, streamedAny = obj, true
			onImproved(AnytimeIncumbent{
				Solution:  dec,
				Objective: dec.Objective,
				At:        time.Since(start),
			})
		}
	}
	fn := SolveFunc(func(ctx context.Context, m *ilpsched.Model, opt mip.Options) (*ilpsched.Solution, error) {
		return m.SolveCtx(ctx, opt)
	})
	if cfg.Hook != nil {
		fn = cfg.Hook(fn)
	}
	sol, err = fn(ctx, m, opt)
	return sol, rs, err
}

// AnytimeIncumbent is one improved incumbent streamed out of an anytime
// solve: the decoded full-instance solution plus when it was found.
type AnytimeIncumbent struct {
	// Solution carries the decoded grid and §3.2-compacted schedules.
	Solution *ilpsched.Solution
	// Objective is the full Eq. 2 objective including the presolve
	// offset (Solution.Objective, hoisted for cheap comparison).
	Objective float64
	// At is the wall-clock offset from the anytime solve's start.
	At time.Duration
}

// SolveAnytime runs a single long solve (no retry ladder) that streams
// every strictly improving incumbent through onImproved as the branch
// and bound finds it, instead of answering only at the end. stop is
// polled at the solver's counter-gated checkpoint: returning true
// preempts the search cooperatively, keeping the best incumbent (this
// is how the anytime core aborts a solve the moment the queue changes).
// onImproved runs on a solver worker goroutine under the solver's
// incumbent lock — it must be fast and must never block; decode
// failures of individual incumbents are skipped, not fatal. The final
// Outcome mirrors Solve's shape (single attempt, cache never consulted:
// an anytime session outlives any one fingerprint).
func SolveAnytime(ctx context.Context, cfg Config, inst *ilpsched.Instance, stop func() bool, onImproved func(AnytimeIncumbent)) *Outcome {
	cfg = cfg.withDefaults()
	scale := cfg.firstScale(inst)
	span := cfg.Trace.StartSpan("solve.anytime",
		obs.Int("scale", scale),
		obs.Int("budget_ms", cfg.Budget.Milliseconds()))
	out := &Outcome{}
	out.attempt(ctx, cfg, inst, scale, cfg.Budget, span, stop, onImproved)
	return out
}

// nextScale coarsens the grid for the next rung: multiply by factor,
// round up to the RoundTo granularity, and guarantee strict growth so
// the ladder always makes progress.
func nextScale(scale int64, factor float64, roundTo int64) int64 {
	next := int64(float64(scale) * factor)
	if roundTo > 1 {
		if rem := next % roundTo; rem != 0 {
			next += roundTo - rem
		}
	}
	if next <= scale {
		step := roundTo
		if step < 1 {
			step = 1
		}
		next = scale + step
	}
	return next
}
