package schedd

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dynp"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/mip"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/solvepipe"
)

func newScheduler(t *testing.T) *dynp.Scheduler {
	t.Helper()
	pols := []policy.Policy{policy.FCFS{}, policy.SJF{}, policy.LJF{}}
	m, err := metrics.ByName("SLDwA")
	if err != nil {
		t.Fatal(err)
	}
	s, err := dynp.New(pols, m, dynp.AdvancedDecider{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newCore builds a stopped core that is stopped again at cleanup.
// Submissions made before Start queue up without a writer draining
// them, so a test can stage an exact backlog.
func newCore(t *testing.T, cfg Config) *Core {
	t.Helper()
	if cfg.Machine == 0 {
		cfg.Machine = 16
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = newScheduler(t)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c.Stop(ctx)
	})
	return c
}

// startCore builds and starts a core; cleanup stops it.
func startCore(t *testing.T, cfg Config) *Core {
	t.Helper()
	c := newCore(t, cfg)
	c.Start()
	return c
}

// waitPlanned blocks until n jobs have been planned (or times out).
func waitPlanned(t *testing.T, c *Core, n int64) *Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s := c.Snapshot()
		if s.Counts.Planned >= n {
			return s
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d planned jobs (have %d)", n, c.Snapshot().Counts.Planned)
	return nil
}

func TestSubmitValidation(t *testing.T) {
	c := startCore(t, Config{Machine: 8, Clock: NewManualClock(0)})
	cases := []SubmitRequest{
		{Width: 0, Estimate: 10},
		{Width: 9, Estimate: 10},            // wider than machine
		{Width: 1, Estimate: 0},             // no estimate
		{Width: 1, Estimate: 5, Runtime: 9}, // runtime > estimate
	}
	for _, req := range cases {
		if _, err := c.Submit(req); err == nil {
			t.Errorf("Submit(%+v) accepted, want validation error", req)
		}
	}
	if _, err := c.Submit(SubmitRequest{Width: 1, Estimate: 10}); err != nil {
		t.Fatalf("valid submit rejected: %v", err)
	}
}

func TestSubmitPlanAndQuery(t *testing.T) {
	// MaxBatch 1 plus waiting between submissions pins the order: job 1
	// is running before job 2 is even admitted, so every policy plans
	// job 2 behind job 1's estimated end.
	c := startCore(t, Config{Machine: 4, Clock: NewManualClock(0), MaxBatch: 1})
	r1, err := c.Submit(SubmitRequest{Width: 4, Estimate: 100})
	if err != nil {
		t.Fatal(err)
	}
	waitPlanned(t, c, 1)
	r2, err := c.Submit(SubmitRequest{Width: 4, Estimate: 50})
	if err != nil {
		t.Fatal(err)
	}
	s := waitPlanned(t, c, 2)
	// Machine is full with job 1; job 2 must be planned behind it.
	st1, ok := c.Job(r1.ID)
	if !ok {
		t.Fatalf("job %d not found", r1.ID)
	}
	if st1.State != StateRunning {
		t.Errorf("job 1 state = %s, want running (planned at now)", st1.State)
	}
	st2, ok := c.Job(r2.ID)
	if !ok {
		t.Fatalf("job %d not found", r2.ID)
	}
	if st2.State != StateWaiting {
		t.Errorf("job 2 state = %s, want waiting", st2.State)
	}
	if st2.PlannedStart != 100 {
		t.Errorf("job 2 planned start = %d, want 100 (behind job 1's estimate)", st2.PlannedStart)
	}
	if st2.PlanLatencyMs < 0 {
		t.Errorf("job 2 plan latency unset")
	}
	if len(s.Schedule) != 1 || s.Schedule[0].JobID != r2.ID {
		t.Errorf("schedule = %+v, want exactly job 2", s.Schedule)
	}
	if _, ok := c.Job(999); ok {
		t.Error("unknown job id found")
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	// With the writer not yet running nothing drains the queue, so the
	// 4-slot bound is hit exactly at the fifth submission.
	c := newCore(t, Config{Machine: 8, Clock: NewManualClock(0), QueueBound: 4})
	for i := 0; i < 4; i++ {
		if _, err := c.Submit(SubmitRequest{Width: 1, Estimate: 10}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := c.Submit(SubmitRequest{Width: 1, Estimate: 10}); err != ErrQueueFull {
		t.Fatalf("fifth submit: err = %v, want ErrQueueFull", err)
	}
	if d := c.QueueDepth(); d != 4 {
		t.Errorf("queue depth = %d, want 4", d)
	}
	// Every accepted job is planned once the writer starts: none dropped.
	c.Start()
	if s := waitPlanned(t, c, 4); s.Counts.Submitted != 4 {
		t.Errorf("submitted = %d, want 4", s.Counts.Submitted)
	}
}

func TestRateLimiting(t *testing.T) {
	c := startCore(t, Config{
		Machine:       8,
		Clock:         NewManualClock(0),
		RatePerSource: 0.001, // effectively one token, no refill in test time
		Burst:         2,
	})
	okA := 0
	var retryAfter time.Duration
	for i := 0; i < 5; i++ {
		_, err := c.Submit(SubmitRequest{Width: 1, Estimate: 10, Source: "a"})
		if err == nil {
			okA++
			continue
		}
		rl, ok := err.(*RateLimitedError)
		if !ok {
			t.Fatalf("want *RateLimitedError, got %v", err)
		}
		retryAfter = rl.RetryAfter
	}
	if okA != 2 {
		t.Errorf("source a: %d accepted, want burst of 2", okA)
	}
	if retryAfter <= 0 {
		t.Error("rate-limit rejection carries no Retry-After hint")
	}
	// An independent source has its own bucket.
	if _, err := c.Submit(SubmitRequest{Width: 1, Estimate: 10, Source: "b"}); err != nil {
		t.Errorf("source b rejected: %v", err)
	}
}

func TestBatchingReducesSteps(t *testing.T) {
	// Self-clocked batching: a backlog that queued while the writer was
	// busy (here: not yet started) becomes one step of up to MaxBatch.
	const n = 60
	run := func(maxBatch int) int64 {
		c := newCore(t, Config{
			Machine:    64,
			Clock:      NewManualClock(0),
			QueueBound: 512,
			MaxBatch:   maxBatch,
		})
		for i := 0; i < n; i++ {
			if _, err := c.Submit(SubmitRequest{Width: 1 + i%4, Estimate: 1000}); err != nil {
				t.Fatal(err)
			}
		}
		c.Start()
		return waitPlanned(t, c, n).Counts.Steps
	}
	if steps := run(64); steps != 1 {
		t.Errorf("MaxBatch 64: %d steps for %d queued submissions, want 1", steps, n)
	}
	if steps := run(1); steps != n {
		t.Errorf("MaxBatch 1: %d steps, want one per submission (%d)", steps, n)
	}
}

func TestCompletionAndPullForward(t *testing.T) {
	// Accelerated wall clock: virtual seconds fly by at 2000/s, so the
	// short job below completes in a few wall milliseconds and the
	// replan pulls the waiting job forward.
	c := startCore(t, Config{Machine: 4, Clock: NewWallClock(2000), MaxBatch: 1})
	// Job 1 fills the machine; estimate far above runtime, so its
	// completion frees capacity long before the plan expected.
	r1, err := c.Submit(SubmitRequest{Width: 4, Estimate: 100000, Runtime: 100})
	if err != nil {
		t.Fatal(err)
	}
	waitPlanned(t, c, 1) // job 1 must be on the machine before job 2 arrives
	r2, err := c.Submit(SubmitRequest{Width: 4, Estimate: 1000, Runtime: 1000})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st2, ok := c.Job(r2.ID)
		if ok && (st2.State == StateRunning || st2.State == StateDone) {
			if st2.Start >= 100000 {
				t.Errorf("job 2 started at %d: completion of job 1 did not pull it forward", st2.Start)
			}
			st1, _ := c.Job(r1.ID)
			if st1.State != StateDone {
				t.Errorf("job 1 state = %s, want done", st1.State)
			}
			s := c.Snapshot()
			if s.Counts.Replans == 0 {
				t.Error("no completion replan recorded")
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("job 2 never started")
}

func TestDrainPlansQueuedJobs(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(Config{
		Machine:   16,
		Scheduler: newScheduler(t),
		Clock:     NewManualClock(0),
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	const n = 25
	for i := 0; i < n; i++ {
		if _, err := c.Submit(SubmitRequest{Width: 1, Estimate: 60}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := c.Stop(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Draining {
		t.Error("final snapshot not marked draining")
	}
	if final.Counts.Planned != n {
		t.Errorf("drain planned %d of %d accepted jobs", final.Counts.Planned, n)
	}
	// After drain, submissions are rejected.
	if _, err := c.Submit(SubmitRequest{Width: 1, Estimate: 60}); err != ErrDraining {
		t.Errorf("submit after drain: err = %v, want ErrDraining", err)
	}
	// Stop is idempotent.
	again, err := c.Stop(context.Background())
	if err != nil || again != final {
		t.Errorf("second Stop = (%p, %v), want the first result (%p)", again, err, final)
	}
	if reg.Counter("schedd.rejects.draining").Value() == 0 {
		t.Error("draining rejection not counted")
	}
}

func TestILPStepDegradationSurfaced(t *testing.T) {
	// Every solve call fails: each step must degrade to the policy
	// schedule, stay up, and surface degraded=true with a reason.
	inj := faultinject.New(faultinject.NthCall{N: 1, Kind: faultinject.Infeasible})
	c := startCore(t, Config{
		Machine: 16,
		Clock:   NewManualClock(0),
		ILP: &ILPConfig{
			StepConfig: solvepipe.StepConfig{Pipe: solvepipe.Config{
				Budget:  2 * time.Second,
				Retries: 1,
				MIP:     mip.Options{MaxNodes: 1000},
				Hook:    inj.Hook,
			}},
		},
	})
	r1, err := c.Submit(SubmitRequest{Width: 16, Estimate: 500})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(SubmitRequest{Width: 16, Estimate: 300}); err != nil {
		t.Fatal(err)
	}
	s := waitPlanned(t, c, 2)
	if s.Counts.DegradedSteps == 0 {
		t.Fatal("no degraded step recorded under 100% fault injection")
	}
	if !s.Degraded {
		t.Error("snapshot not marked degraded")
	}
	if !strings.Contains(s.DegradedReason, "infeasible") {
		t.Errorf("degraded reason %q does not name the failure", s.DegradedReason)
	}
	if st, ok := c.Job(r1.ID); !ok || st.State == StateQueued {
		t.Errorf("job 1 not planned despite fallback (state %v)", st.State)
	}
}

func TestILPStepSolvesWhenHealthy(t *testing.T) {
	c := startCore(t, Config{
		Machine: 8,
		Clock:   NewManualClock(0),
		ILP: &ILPConfig{
			StepConfig: solvepipe.StepConfig{Pipe: solvepipe.Config{
				Budget:  5 * time.Second,
				Retries: 1,
				MIP:     mip.Options{MaxNodes: 20000},
			}},
		},
	})
	for i := 0; i < 6; i++ {
		if _, err := c.Submit(SubmitRequest{Width: 1 + i%3, Estimate: int64(100 * (i + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	s := waitPlanned(t, c, 6)
	if s.Degraded {
		t.Errorf("healthy ILP run degraded: %s", s.DegradedReason)
	}
}

func TestSnapshotConsistencyUnderLoad(t *testing.T) {
	// Readers hammer snapshots and job lookups while the writer plans;
	// run under -race this is the lock-free-read correctness test.
	c := startCore(t, Config{
		Machine:    32,
		Clock:      NewWallClock(500),
		QueueBound: 512,
		MaxBatch:   16,
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := c.Snapshot()
				if s == nil {
					t.Error("nil snapshot")
					return
				}
				for id := range s.Active {
					c.Job(id)
				}
				c.Job(1)
			}
		}()
	}
	const n = 120
	accepted := 0
	for i := 0; i < n; i++ {
		if _, err := c.Submit(SubmitRequest{Width: 1 + i%8, Estimate: int64(60 + i), Runtime: 30}); err == nil {
			accepted++
		}
		if i%10 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	waitPlanned(t, c, int64(accepted))
	close(stop)
	wg.Wait()
	// Every accepted job is visible through some read path.
	for id := 1; id <= accepted; id++ {
		if _, ok := c.Job(id); !ok {
			t.Errorf("accepted job %d invisible", id)
		}
	}
}
