package sim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dynp"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/workload"
)

func fcfsOnly() *dynp.Scheduler {
	return dynp.MustNew([]policy.Policy{policy.FCFS{}}, metrics.SLDwA{}, dynp.SimpleDecider{})
}

func standard() *dynp.Scheduler {
	return dynp.MustNew(policy.Standard(), metrics.SLDwA{}, dynp.AdvancedDecider{})
}

func trace(procs int, jobs ...*job.Job) *job.Trace {
	t := &job.Trace{Processors: procs, Jobs: jobs}
	t.SortBySubmit()
	return t
}

func j(id int, submit int64, width int, est, run int64) *job.Job {
	return &job.Job{ID: id, Submit: submit, Width: width, Estimate: est, Runtime: run}
}

func find(t *testing.T, r *Result, id int) CompletedJob {
	t.Helper()
	for _, c := range r.Completed {
		if c.Job.ID == id {
			return c
		}
	}
	t.Fatalf("job %d not completed", id)
	return CompletedJob{}
}

func TestSequentialExecution(t *testing.T) {
	// 2-proc machine, two 2-wide jobs: strictly sequential.
	tr := trace(2,
		j(1, 0, 2, 100, 100),
		j(2, 10, 2, 50, 50),
	)
	s, err := New(tr, fcfsOnly(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := find(t, res, 1), find(t, res, 2)
	if c1.Start != 0 || c1.End != 100 {
		t.Fatalf("job 1 ran [%d,%d), want [0,100)", c1.Start, c1.End)
	}
	if c2.Start != 100 || c2.End != 150 {
		t.Fatalf("job 2 ran [%d,%d), want [100,150)", c2.Start, c2.End)
	}
	if res.Makespan != 150 {
		t.Fatalf("makespan = %d, want 150", res.Makespan)
	}
	if res.Steps != 2 {
		t.Fatalf("steps = %d, want 2 (one per submission)", res.Steps)
	}
}

func TestEarlyCompletionPullsForward(t *testing.T) {
	// Job 1 estimates 100 but runs 40. With replanning on completion,
	// job 2 starts at 40, not at the estimated 100.
	tr := trace(2,
		j(1, 0, 2, 100, 40),
		j(2, 10, 2, 50, 50),
	)
	s, err := New(tr, fcfsOnly(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c2 := find(t, res, 2); c2.Start != 40 {
		t.Fatalf("job 2 start %d, want 40 (pulled forward)", c2.Start)
	}
}

func TestNoReplanOnCompletionWaitsForEstimate(t *testing.T) {
	tr := trace(2,
		j(1, 0, 2, 100, 40),
		j(2, 10, 2, 50, 50),
	)
	s, err := New(tr, fcfsOnly(), Config{ReplanOnCompletion: false})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c2 := find(t, res, 2); c2.Start != 100 {
		t.Fatalf("job 2 start %d, want 100 (estimated end of job 1)", c2.Start)
	}
}

func TestImplicitBackfillingInSimulation(t *testing.T) {
	// M=4: wide job (w=4) blocked behind a running 2-wide job; a narrow
	// 2-wide short job submitted later backfills immediately.
	tr := trace(4,
		j(1, 0, 2, 100, 100), // starts at 0, holds 2 procs
		j(2, 1, 4, 50, 50),   // must wait until 100
		j(3, 2, 2, 20, 20),   // backfills at 2
	)
	s, err := New(tr, fcfsOnly(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c3 := find(t, res, 3); c3.Start != 2 {
		t.Fatalf("job 3 start %d, want 2 (backfilled)", c3.Start)
	}
	if c2 := find(t, res, 2); c2.Start != 100 {
		t.Fatalf("job 2 start %d, want 100", c2.Start)
	}
}

func TestSelfTuningSwitchesOnBurst(t *testing.T) {
	// The machine is busy with a running job while a huge job and a burst
	// of tiny jobs pile up in the queue: FCFS would run the huge job
	// first, so SLDwA self-tuning must switch to SJF at some step.
	jobs := []*job.Job{
		j(1, 0, 4, 50, 50),       // occupies the machine
		j(2, 1, 4, 60000, 60000), // huge job, waits
	}
	for i := 3; i <= 13; i++ {
		jobs = append(jobs, j(i, int64(i), 4, 10, 10))
	}
	tr := trace(4, jobs...)
	s, err := New(tr, standard(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches == 0 {
		t.Fatalf("self-tuner never switched; policy use: %v", res.PolicyUse)
	}
	if res.PolicyUse["SJF"] == 0 {
		t.Fatalf("SJF never chosen on a short-job burst: %v", res.PolicyUse)
	}
}

func TestOnStepHook(t *testing.T) {
	tr := trace(4, j(1, 0, 2, 100, 100), j(2, 50, 2, 100, 100))
	var steps []*StepContext
	cfg := DefaultConfig()
	cfg.OnStep = func(sc *StepContext) { steps = append(steps, sc) }
	s, err := New(tr, standard(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 {
		t.Fatalf("OnStep fired %d times, want 2", len(steps))
	}
	if steps[0].Submitted.ID != 1 || steps[1].Submitted.ID != 2 {
		t.Fatalf("step submitters wrong: %d, %d", steps[0].Submitted.ID, steps[1].Submitted.ID)
	}
	if len(steps[0].Waiting) != 1 {
		t.Fatalf("step 1 waiting = %d, want 1", len(steps[0].Waiting))
	}
	// Job 1 is running when job 2 arrives: waiting queue is only job 2,
	// and the base profile shows 2 procs busy until 100.
	if len(steps[1].Waiting) != 1 || steps[1].Waiting[0].ID != 2 {
		t.Fatalf("step 2 waiting wrong: %v", steps[1].Waiting)
	}
	if free := steps[1].Base.FreeAt(60); free != 2 {
		t.Fatalf("step 2 base profile FreeAt(60) = %d, want 2", free)
	}
	if len(steps[1].Result.Evals) != 3 {
		t.Fatalf("step 2 has %d evaluations, want 3", len(steps[1].Result.Evals))
	}
}

func TestNewValidation(t *testing.T) {
	tr := trace(4, j(1, 0, 2, 10, 10))
	if _, err := New(tr, nil, DefaultConfig()); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	if _, err := New(&job.Trace{}, fcfsOnly(), DefaultConfig()); err == nil {
		t.Fatal("empty trace accepted")
	}
	noProcs := trace(0, j(1, 0, 2, 10, 10))
	if _, err := New(noProcs, fcfsOnly(), DefaultConfig()); err == nil {
		t.Fatal("unknown machine size accepted")
	}
	// A job wider than the (overridden) machine is rejected by the
	// simulator itself when the trace does not record a machine size.
	wide := trace(0, j(1, 0, 8, 10, 10))
	if _, err := New(wide, fcfsOnly(), Config{Machine: 4, ReplanOnCompletion: true}); err == nil ||
		!strings.Contains(err.Error(), "wider") {
		t.Fatalf("over-wide job accepted: %v", err)
	}
	// A sufficiently large machine override makes the same trace runnable.
	s, err := New(wide, fcfsOnly(), Config{Machine: 16, ReplanOnCompletion: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResultMetrics(t *testing.T) {
	tr := trace(2,
		j(1, 0, 2, 100, 100), // resp 100, wait 0, sld 1
		j(2, 0, 2, 100, 100), // resp 200, wait 100, sld 2
	)
	s, _ := New(tr, fcfsOnly(), DefaultConfig())
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MeanResponseTime(); got != 150 {
		t.Fatalf("mean response = %v, want 150", got)
	}
	if got := res.MeanWaitTime(); got != 50 {
		t.Fatalf("mean wait = %v, want 50", got)
	}
	if got := res.MeanSlowdown(); got != 1.5 {
		t.Fatalf("mean slowdown = %v, want 1.5", got)
	}
	if got := res.SlowdownWeightedByArea(); got != 1.5 {
		t.Fatalf("SLDwA = %v, want 1.5 (equal areas)", got)
	}
	if got := res.Utilization(2); got != 1.0 {
		t.Fatalf("utilization = %v, want 1.0 (back-to-back)", got)
	}
	empty := &Result{}
	if empty.MeanResponseTime() != 0 || empty.MeanSlowdown() != 0 ||
		empty.MeanWaitTime() != 0 || empty.SlowdownWeightedByArea() != 0 ||
		empty.Utilization(4) != 0 {
		t.Fatal("empty result metrics not zero")
	}
}

func TestSelfTuneOnCompletion(t *testing.T) {
	tr := trace(2,
		j(1, 0, 2, 100, 40),
		j(2, 10, 2, 50, 50),
	)
	s, err := New(tr, standard(), Config{ReplanOnCompletion: true, SelfTuneOnCompletion: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 2 submissions + 1 completion with a non-empty queue = 3 steps.
	if res.Steps != 3 {
		t.Fatalf("steps = %d, want 3", res.Steps)
	}
	if c2 := find(t, res, 2); c2.Start != 40 {
		t.Fatalf("job 2 start %d, want 40", c2.Start)
	}
}

// verifyCapacity rebuilds the actual usage from completion records and
// fails if the machine was ever over-committed or a job started before
// submission.
func verifyCapacity(t *testing.T, res *Result, procs int) {
	t.Helper()
	p := machine.New(procs, 0)
	for _, c := range res.Completed {
		if c.Start < c.Job.Submit {
			t.Fatalf("job %d started at %d before submission %d", c.Job.ID, c.Start, c.Job.Submit)
		}
		if c.End != c.Start+c.Job.Runtime {
			t.Fatalf("job %d ran %d seconds, runtime is %d", c.Job.ID, c.End-c.Start, c.Job.Runtime)
		}
		if err := p.Reserve(c.Start, c.End, c.Job.Width); err != nil {
			t.Fatalf("capacity violated by job %d: %v", c.Job.ID, err)
		}
	}
}

func TestCapacityNeverViolated(t *testing.T) {
	tr, err := workload.Generate(workload.CTC(), 300, 21)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(tr, standard(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != 300 {
		t.Fatalf("completed %d of 300 jobs", len(res.Completed))
	}
	verifyCapacity(t, res, tr.Processors)
}

// Property: random small traces always complete every job exactly once
// with no capacity violation, under every decider/replan configuration.
func TestSimulationInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		n := r.Intn(25) + 1
		procs := r.Intn(15) + 2
		tr := &job.Trace{Processors: procs}
		var clock int64
		for i := 0; i < n; i++ {
			clock += int64(r.Intn(200))
			run := int64(r.Intn(500) + 1)
			est := run + int64(r.Intn(300))
			tr.Jobs = append(tr.Jobs, j(i+1, clock, r.Intn(procs)+1, est, run))
		}
		for _, cfg := range []Config{
			{ReplanOnCompletion: true},
			{ReplanOnCompletion: false},
			{ReplanOnCompletion: true, SelfTuneOnCompletion: true},
		} {
			s, err := New(tr, standard(), cfg)
			if err != nil {
				return false
			}
			res, err := s.Run()
			if err != nil {
				return false
			}
			if len(res.Completed) != n {
				return false
			}
			p := machine.New(procs, 0)
			for _, c := range res.Completed {
				if c.Start < c.Job.Submit {
					return false
				}
				if p.Reserve(c.Start, c.End, c.Job.Width) != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSimulate300CTCJobs(b *testing.B) {
	tr, err := workload.Generate(workload.CTC(), 300, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(tr, standard(), DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestQueueDepthStats(t *testing.T) {
	// Job 1 starts immediately (depth 1 at its step); jobs 2 and 3 queue
	// behind it (depths 1 and 2): max 2, mean 4/3.
	tr := trace(2,
		j(1, 0, 2, 1000, 1000),
		j(2, 1, 2, 10, 10),
		j(3, 2, 2, 10, 10),
	)
	s, err := New(tr, fcfsOnly(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxQueueDepth != 2 {
		t.Fatalf("MaxQueueDepth = %d, want 2", res.MaxQueueDepth)
	}
	if got := res.MeanQueueDepth(); got != 4.0/3.0 {
		t.Fatalf("MeanQueueDepth = %v, want 4/3", got)
	}
	if (&Result{}).MeanQueueDepth() != 0 {
		t.Fatal("empty result mean queue depth not 0")
	}
}

func TestAdvanceReservationBlocksCapacity(t *testing.T) {
	// Machine of 4 with a full-width reservation on [50, 150): a job
	// submitted at 0 with estimate 100 cannot overlap the window, so it
	// must start after the reservation ends (it cannot finish by 50).
	tr := trace(4, j(1, 0, 4, 100, 100))
	cfg := Config{ReplanOnCompletion: true,
		Reservations: []Reservation{{Start: 50, End: 150, Width: 4}}}
	s, err := New(tr, fcfsOnly(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c := find(t, res, 1); c.Start != 150 {
		t.Fatalf("job start %d, want 150 (after the reservation)", c.Start)
	}
}

func TestShortJobFitsBeforeReservation(t *testing.T) {
	// A 40 s job fits entirely before the [50, 150) reservation.
	tr := trace(4, j(1, 0, 4, 40, 40))
	cfg := Config{ReplanOnCompletion: true,
		Reservations: []Reservation{{Start: 50, End: 150, Width: 4}}}
	s, err := New(tr, fcfsOnly(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c := find(t, res, 1); c.Start != 0 {
		t.Fatalf("job start %d, want 0 (fits before the reservation)", c.Start)
	}
}

func TestPartialWidthReservation(t *testing.T) {
	// Reservation takes 2 of 4 processors forever-ish: a 2-wide job can
	// run beside it, a 3-wide job must wait until it ends.
	tr := trace(4,
		j(1, 0, 2, 100, 100),
		j(2, 0, 3, 50, 50),
	)
	cfg := Config{ReplanOnCompletion: true,
		Reservations: []Reservation{{Start: 0, End: 1000, Width: 2}}}
	s, err := New(tr, fcfsOnly(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c := find(t, res, 1); c.Start != 0 {
		t.Fatalf("narrow job start %d, want 0", c.Start)
	}
	if c := find(t, res, 2); c.Start != 1000 {
		t.Fatalf("wide job start %d, want 1000", c.Start)
	}
}

func TestReservationValidation(t *testing.T) {
	tr := trace(4, j(1, 0, 2, 10, 10))
	bad := []Config{
		{ReplanOnCompletion: true, Reservations: []Reservation{{Start: 10, End: 5, Width: 1}}},
		{ReplanOnCompletion: true, Reservations: []Reservation{{Start: 0, End: 5, Width: 0}}},
		{ReplanOnCompletion: true, Reservations: []Reservation{{Start: 0, End: 5, Width: 9}}},
		{ReplanOnCompletion: true, Reservations: []Reservation{{Start: -3, End: 5, Width: 1}}},
	}
	for i, cfg := range bad {
		if _, err := New(tr, fcfsOnly(), cfg); err == nil {
			t.Fatalf("bad reservation config %d accepted", i)
		}
	}
}

// Reproducibility: two simulations of the same trace must agree event for
// event — the determinism the whole harness rests on.
func TestSimulationDeterminism(t *testing.T) {
	tr, err := workload.Generate(workload.CTC(), 150, 99)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		s, err := New(tr, standard(), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Completed) != len(b.Completed) || a.Switches != b.Switches ||
		a.Makespan != b.Makespan {
		t.Fatal("runs diverged at the summary level")
	}
	byID := func(r *Result) map[int]CompletedJob {
		m := map[int]CompletedJob{}
		for _, c := range r.Completed {
			m[c.Job.ID] = c
		}
		return m
	}
	ma, mb := byID(a), byID(b)
	for id, ca := range ma {
		cb := mb[id]
		if ca.Start != cb.Start || ca.End != cb.End {
			t.Fatalf("job %d diverged: [%d,%d) vs [%d,%d)", id, ca.Start, ca.End, cb.Start, cb.End)
		}
	}
}
