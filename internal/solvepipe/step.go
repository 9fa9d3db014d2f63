// The step engine: the one routine that turns a dynP self-tuning step
// into an adopted plan. It extracts the step's quasi off-line instance,
// runs it through the retry ladder (behind the cross-step cache and the
// previous step's reuse seed), validates the compacted schedule against
// the step's machine profile and falls back to the chosen policy
// schedule on any failure. The simulator and the serving core both
// drive their ILP steps through a Stepper and keep only their own
// policy: counters, the abort rule, the SLO guard.
package solvepipe

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/dynp"
	"repro/internal/ilpsched"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/schedule"
)

// StepConfig is the ILP configuration every step-driving caller shares.
type StepConfig struct {
	// Pipe parameterizes the retry ladder. Trace, Metrics, Seed and
	// ReuseSeed default per step (see Stepper.Step).
	Pipe Config
	// StepCacheOff disables the cross-step solution cache. By default a
	// Stepper answers steps whose relative instance fingerprint matches
	// an already-solved one with the rebased cached schedule, without
	// building or solving a model. Only successful solves populate the
	// cache, and each hit is re-validated against the live profile.
	StepCacheOff bool
	// ReuseOff disables seeding each step's branch and bound with the
	// previous step's compacted ILP schedule (on by default; the seed is
	// only an incumbent candidate and never changes the proven optimum).
	ReuseOff bool
}

// ErrInvalidSchedule marks a solved step whose compacted schedule does
// not fit the step's machine profile: a solver bug, not an instance
// property, so the step degrades like any other failure.
var ErrInvalidSchedule = errors.New("infeasible ILP schedule")

// Stepper drives self-tuning steps through the pipeline. It owns the
// step cache and the reuse seed (the last adopted ILP schedule), so one
// Stepper belongs to one sequence of steps and is not safe for
// concurrent use.
type Stepper struct {
	cfg     StepConfig
	metrics *obs.Registry
	cache   *stepCache
	last    *schedule.Schedule
}

// NewStepper returns a step engine; metrics is the default sink of the
// pipeline's counters (Pipe.Metrics takes precedence).
func NewStepper(cfg StepConfig, metrics *obs.Registry) *Stepper {
	s := &Stepper{cfg: cfg, metrics: metrics}
	if !cfg.StepCacheOff {
		s.cache = &stepCache{byKey: make(map[uint64]*cacheEntry)}
	}
	return s
}

// SetReuseSeed makes sch the next step's reuse seed: the caller adopted
// an ILP schedule outside Step (the anytime optimizer's incumbents).
func (s *Stepper) SetReuseSeed(sch *schedule.Schedule) { s.last = sch }

// StepInstance returns the quasi off-line instance of a self-tuning
// step: the waiting jobs on the step's machine profile up to the largest
// makespan of the policy schedules. It returns nil when that horizon is
// not after now, i.e. every waiting job starts now and there is nothing
// to optimize.
func StepInstance(now int64, base *machine.Profile, waiting []*job.Job, res *dynp.StepResult) *ilpsched.Instance {
	var horizon int64
	for _, e := range res.Evals {
		if mk := e.Schedule.Makespan(); mk > horizon {
			horizon = mk
		}
	}
	if horizon <= now {
		return nil
	}
	return &ilpsched.Instance{
		Now:     now,
		Machine: base.Total(),
		Base:    base,
		Jobs:    waiting,
		Horizon: horizon,
	}
}

// Step solves one self-tuning step and returns the schedule to adopt,
// the pipeline outcome, the failure kind and the error. The outcome is
// nil when there was nothing to optimize; then the schedule is the
// chosen policy schedule. On success the schedule is the validated
// compacted ILP schedule and becomes the next reuse seed. On failure
// the schedule is the chosen policy schedule, the reuse seed is cleared
// (a degraded step must never seed reuse), and every failure but a
// canceled context emits "solve.fallback" on the pipeline's tracer; tr
// is that tracer unless Pipe.Trace is set.
func (s *Stepper) Step(ctx context.Context, tr *obs.Tracer, now int64, base *machine.Profile, waiting []*job.Job, res *dynp.StepResult) (*schedule.Schedule, *Outcome, FailureKind, error) {
	inst := StepInstance(now, base, waiting, res)
	if inst == nil {
		return res.Schedule, nil, FailNone, nil
	}
	pipe := s.cfg.Pipe
	if pipe.Trace == nil {
		pipe.Trace = tr
	}
	if pipe.Metrics == nil {
		pipe.Metrics = s.metrics
	}
	if pipe.Seed == nil {
		pipe.Seed = res.Schedule
	}
	if pipe.ReuseSeed == nil && !s.cfg.ReuseOff {
		pipe.ReuseSeed = ReuseSeed(s.last, waiting, now, inst.Machine)
	}
	out := solve(ctx, pipe, inst, s.cache)
	kind, err := out.LastFailure(), out.Err
	if !out.Failed() {
		sch := out.Solution.Compacted
		verr := sch.Validate(base)
		if verr == nil {
			s.last = sch
			return sch, out, FailNone, nil
		}
		kind, err = FailError, fmt.Errorf("%w: %v", ErrInvalidSchedule, verr)
	}
	s.last = nil
	if kind != FailCanceled {
		pipe.Trace.Emit("solve.fallback",
			obs.Int("t", now),
			obs.Str("cause", kind.String()),
			obs.Int("attempts", int64(len(out.Attempts))),
			obs.Str("policy", res.Chosen.Name()))
	}
	return res.Schedule, out, kind, err
}

// ReuseSeed derives a Config.ReuseSeed candidate from the last adopted
// ILP schedule: its entries restricted to the jobs still waiting, with
// jobs that arrived since appended behind them in submission order. Only
// the relative order matters downstream (IncumbentFromSchedule and the
// presolve upper-bound seeds list-schedule in start order), so the
// appended entries just need starts that sort last. It returns nil when
// nothing of the last schedule is still waiting.
func ReuseSeed(last *schedule.Schedule, waiting []*job.Job, now int64, total int) *schedule.Schedule {
	if last == nil || len(last.Entries) == 0 {
		return nil
	}
	waitingByID := make(map[int]bool, len(waiting))
	for _, j := range waiting {
		waitingByID[j.ID] = true
	}
	seed := &schedule.Schedule{Policy: "reuse", Now: now, Machine: total}
	kept := make(map[int]bool, len(last.Entries))
	maxStart := now
	for _, e := range last.Entries {
		if !waitingByID[e.Job.ID] {
			continue // started or otherwise departed since
		}
		kept[e.Job.ID] = true
		seed.Entries = append(seed.Entries, e)
		if e.Start > maxStart {
			maxStart = e.Start
		}
	}
	if len(kept) == 0 {
		return nil
	}
	fresh := make([]*job.Job, 0, len(waiting)-len(kept))
	for _, j := range waiting {
		if !kept[j.ID] {
			fresh = append(fresh, j)
		}
	}
	sort.Slice(fresh, func(i, k int) bool {
		if fresh[i].Submit != fresh[k].Submit {
			return fresh[i].Submit < fresh[k].Submit
		}
		return fresh[i].ID < fresh[k].ID
	})
	for k, j := range fresh {
		seed.Entries = append(seed.Entries, schedule.Entry{Job: j, Start: maxStart + int64(k) + 1})
	}
	return seed
}
