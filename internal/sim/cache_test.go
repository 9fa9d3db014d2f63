package sim

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/ilpsched"
	"repro/internal/job"
	"repro/internal/mip"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/solvepipe"
)

// repeatingTrace builds identical whole-machine jobs spaced so far apart
// that the machine is idle again before each submission: every step sees
// the same *relative* instance (one waiting job, empty profile, same
// horizon offset), so all steps after the first share a fingerprint.
func repeatingTrace(n int, procs int) *job.Trace {
	jobs := make([]*job.Job, n)
	for i := range jobs {
		jobs[i] = &job.Job{
			ID: i + 1, Submit: int64(i) * 200, Width: procs,
			Runtime: 100, Estimate: 100,
		}
	}
	return trace(procs, jobs...)
}

// countingHook counts the solve calls that actually reach the solver
// (cache hits never do), optionally chaining an inner hook.
func countingHook(calls *int64, inner func(solvepipe.SolveFunc) solvepipe.SolveFunc) func(solvepipe.SolveFunc) solvepipe.SolveFunc {
	return func(next solvepipe.SolveFunc) solvepipe.SolveFunc {
		if inner != nil {
			next = inner(next)
		}
		return func(ctx context.Context, m *ilpsched.Model, opt mip.Options) (*ilpsched.Solution, error) {
			atomic.AddInt64(calls, 1)
			return next(ctx, m, opt)
		}
	}
}

// The cross-step cache short-circuits steps whose relative instance
// repeats: on a trace of identical, well-separated jobs only the first
// step solves a model; every later step is a rebased cache hit that
// still starts its job at the right absolute time.
func TestStepCacheHitsAcrossRepeatingSteps(t *testing.T) {
	const n = 3
	var calls int64
	ilp := ilpConfig(countingHook(&calls, nil))
	reg := obs.NewRegistry()
	res, err := mustSim(t, repeatingTrace(n, 4), ilp, &Config{Metrics: reg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != n {
		t.Fatalf("completed %d/%d jobs", len(res.Completed), n)
	}
	for _, c := range res.Completed {
		if c.Start != c.Job.Submit {
			t.Errorf("job %d started at %d, want its submit %d", c.Job.ID, c.Start, c.Job.Submit)
		}
	}
	if res.ILPSteps != n || res.ILPFallbacks != 0 {
		t.Fatalf("steps=%d fallbacks=%d", res.ILPSteps, res.ILPFallbacks)
	}
	if res.ILPCacheHits != n-1 {
		t.Fatalf("cache hits = %d, want %d", res.ILPCacheHits, n-1)
	}
	if got := atomic.LoadInt64(&calls); got != 1 {
		t.Fatalf("solver called %d times, want 1", got)
	}
	if got := reg.Counter("step.cache.hits").Value(); got != int64(n-1) {
		t.Fatalf("step.cache.hits counter = %d, want %d", got, n-1)
	}
}

// StepCacheOff restores one real solve per step.
func TestStepCacheOff(t *testing.T) {
	const n = 3
	var calls int64
	ilp := ilpConfig(countingHook(&calls, nil))
	ilp.StepCacheOff = true
	res, err := mustSim(t, repeatingTrace(n, 4), ilp, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ILPCacheHits != 0 {
		t.Fatalf("cache hits = %d with the cache off", res.ILPCacheHits)
	}
	if got := atomic.LoadInt64(&calls); got != n {
		t.Fatalf("solver called %d times, want %d", got, n)
	}
}

// onlyCall faults exactly one solve call (NthCall would fault every
// multiple of N).
type onlyCall struct {
	n    int
	kind faultinject.Kind
}

func (p onlyCall) Next(call int) (faultinject.Kind, bool) {
	if call == p.n {
		return p.kind, true
	}
	return 0, false
}

// A degraded step must never populate the cache: with the first solve
// faulted, the otherwise-identical second step cannot be served a stale
// schedule — it solves for real, and only *its* success seeds the hits
// of the remaining steps.
func TestStepCacheNotPoisonedByFallback(t *testing.T) {
	const n = 4
	inj := faultinject.New(onlyCall{n: 1, kind: faultinject.Timeout})
	var calls int64
	ilp := ilpConfig(countingHook(&calls, inj.Hook))
	reg := obs.NewRegistry()
	res, err := mustSim(t, repeatingTrace(n, 4), ilp, &Config{Metrics: reg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(inj.Injected()) != 1 {
		t.Fatalf("injected %d faults, want 1", len(inj.Injected()))
	}
	if res.ILPFallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", res.ILPFallbacks)
	}
	// Step 1 faulted (nothing cached), step 2 solved for real, steps 3..n
	// hit the cache: two real solver calls, n-2 hits.
	if got := atomic.LoadInt64(&calls); got != 2 {
		t.Fatalf("solver called %d times, want 2 (fallback step must not be cached)", got)
	}
	if res.ILPCacheHits != n-2 {
		t.Fatalf("cache hits = %d, want %d", res.ILPCacheHits, n-2)
	}
	// The degraded run still starts every job at its submission: serving
	// any stale schedule would have shifted a start or failed validation.
	if len(res.Completed) != n {
		t.Fatalf("completed %d/%d jobs", len(res.Completed), n)
	}
	for _, c := range res.Completed {
		if c.Start != c.Job.Submit {
			t.Errorf("job %d started at %d, want its submit %d", c.Job.ID, c.Start, c.Job.Submit)
		}
	}
	if got := reg.Counter("step.cache.hits").Value(); got != int64(n-2) {
		t.Fatalf("step.cache.hits counter = %d, want %d", got, n-2)
	}
}

// solvepipe.ReuseSeed derives the next step's incumbent candidate from
// the last adopted ILP schedule: departed jobs are dropped, survivors keep
// their relative order, and new arrivals are appended behind them.
func TestReuseSeedFiltersAndAppends(t *testing.T) {
	jA := &job.Job{ID: 1, Submit: 0, Width: 1, Runtime: 50, Estimate: 50}
	jB := &job.Job{ID: 2, Submit: 0, Width: 1, Runtime: 50, Estimate: 50}
	jC := &job.Job{ID: 3, Submit: 90, Width: 1, Runtime: 50, Estimate: 50}
	jD := &job.Job{ID: 4, Submit: 80, Width: 1, Runtime: 50, Estimate: 50}
	if solvepipe.ReuseSeed(nil, nil, 100, 2) != nil {
		t.Fatal("reuse seed without a previous schedule")
	}
	last := &schedule.Schedule{Now: 90, Machine: 2, Entries: []schedule.Entry{
		{Job: jB, Start: 150}, {Job: jA, Start: 100},
	}}
	// jA started since (not waiting); jC and jD arrived since.
	seed := solvepipe.ReuseSeed(last, []*job.Job{jB, jC, jD}, 100, 2)
	if seed == nil || len(seed.Entries) != 3 {
		t.Fatalf("seed = %+v, want 3 entries", seed)
	}
	// Survivor first with its planned start, then arrivals by submit
	// order (jD before jC) with strictly later starts.
	wantIDs := []int{2, 4, 3}
	for k, e := range seed.Entries {
		if e.Job.ID != wantIDs[k] {
			t.Fatalf("entry %d is job %d, want %d (%+v)", k, e.Job.ID, wantIDs[k], seed.Entries)
		}
	}
	if seed.Entries[0].Start != 150 {
		t.Fatalf("survivor start = %d, want its planned 150", seed.Entries[0].Start)
	}
	if !(seed.Entries[1].Start > 150 && seed.Entries[2].Start > seed.Entries[1].Start) {
		t.Fatalf("appended arrivals must sort last: %+v", seed.Entries)
	}
	// No overlap with the previous plan: no seed at all.
	if got := solvepipe.ReuseSeed(last, []*job.Job{jC, jD}, 100, 2); got != nil {
		t.Fatalf("seed from fully-departed plan = %+v, want nil", got)
	}
}

// Race-coverage target (run with -race in CI): an ILP-driven simulation
// with presolve on (the default), the cross-step cache on (the default)
// and the parallel branch and bound all at once. Assertions are minimal
// on purpose — the test exists to put every concurrent component on the
// same steps.
func TestILPRunRaceWithPresolveAndStepCache(t *testing.T) {
	jobs := make([]*job.Job, 12)
	for i := range jobs {
		est := int64(60 + 30*(i%4))
		jobs[i] = &job.Job{
			ID: i + 1, Submit: int64(i) * 45, Width: 1 + i%3,
			Runtime: est, Estimate: est,
		}
	}
	ilp := ilpConfig(nil)
	ilp.Pipe.MIP.Workers = 4
	cfg := &Config{Metrics: obs.NewRegistry()}
	res, err := mustSim(t, trace(4, jobs...), ilp, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != len(jobs) {
		t.Fatalf("completed %d/%d jobs", len(res.Completed), len(jobs))
	}
	if res.ILPSteps == 0 {
		t.Fatal("no ILP steps ran")
	}
	if res.ILPFallbacks != 0 {
		t.Fatalf("%d unexpected fallbacks: %+v", res.ILPFallbacks, res.Failures)
	}
}
