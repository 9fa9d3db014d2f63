package shard

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ilpsched"
	"repro/internal/mip"
	"repro/internal/obs"
	"repro/internal/schedd"
	"repro/internal/solvepipe"
	"repro/internal/wal"
)

// slowShardHook returns a solve hook for one shard: the first call is
// delayed by warm (producing one honest slow plan-latency sample), and
// every later call parks on the returned release channel — the writer
// loop holds exactly one submission while the rest pile up in the
// queue, which is the backlog the rebalancer steals from.
func slowShardHook(warm time.Duration) (func(solvepipe.SolveFunc) solvepipe.SolveFunc, chan struct{}) {
	release := make(chan struct{})
	var calls atomic.Int64
	hook := func(base solvepipe.SolveFunc) solvepipe.SolveFunc {
		return func(ctx context.Context, m *ilpsched.Model, opt mip.Options) (*ilpsched.Solution, error) {
			if calls.Add(1) == 1 {
				time.Sleep(warm)
			} else {
				select {
				case <-release:
				case <-ctx.Done():
				}
			}
			return base(ctx, m, opt)
		}
	}
	return hook, release
}

func ilpCfg(hook func(solvepipe.SolveFunc) solvepipe.SolveFunc) *schedd.ILPConfig {
	return &schedd.ILPConfig{StepConfig: solvepipe.StepConfig{Pipe: solvepipe.Config{
		// A budget far past the test horizon: the ladder must never time
		// a parked solve out and plan the job behind the test's back.
		Budget: 120 * time.Second,
		MIP:    mip.Options{MaxNodes: 50000},
		Hook:   hook,
	}}}
}

// TestStealQueuedWidthFilter: a queued job wider than the target's
// sub-machine must not be stolen — the target would reject the hand-off
// forever, stranding the job in the pending-migration set.
func TestStealQueuedWidthFilter(t *testing.T) {
	r := newTestRouter(t, Config{
		Shards: 2, Machine: 16, WideLane: 12,
		Factory: basicFactory(t, schedd.NewManualClock(0), nil),
	})
	// Cores stay unstarted: submissions stay queued, nothing drains.
	wide, err := r.Core(0).Submit(schedd.SubmitRequest{Width: 8, Estimate: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Core(0).Submit(schedd.SubmitRequest{Width: 3, Estimate: 10}); err != nil {
		t.Fatal(err)
	}
	stolen := r.Core(0).StealQueued(8, 1, r.machines[1])
	if len(stolen) != 1 || stolen[0].Width != 3 {
		t.Fatalf("stole %+v, want exactly the width-3 job (target machine is %d)", stolen, r.machines[1])
	}
	// The too-wide job is still queued at its source.
	st, ok := r.Job(r.global(0, wide.ID))
	if !ok || st.State != schedd.StateQueued {
		t.Fatalf("wide job status = %+v ok=%v, want queued at shard 0", st, ok)
	}
	// The stolen job, mid-migration (steal durable, target hand-off not
	// yet driven — exactly the post-crash-recovery state too), must stay
	// visible as queued through both the core and the router: status
	// lookups never 404 between steal and target admission.
	mid := stolen[0].ID
	if st, ok := r.Core(0).Job(mid); !ok || st.State != schedd.StateQueued {
		t.Fatalf("mid-migration core lookup = %+v ok=%v, want queued", st, ok)
	}
	if st, ok := r.Job(r.global(0, mid)); !ok || st.State != schedd.StateQueued {
		t.Fatalf("mid-migration router lookup = %+v ok=%v, want queued", st, ok)
	}
}

// TestRebalanceMigratesQueuedExactlyOnce drives shard 0's p99 past the
// divergence threshold with a parked solver, lets the maintenance loop
// migrate the queued backlog to shard 1, and checks each migrated job
// is planned exactly once — and that a keyed job never migrates.
func TestRebalanceMigratesQueuedExactlyOnce(t *testing.T) {
	hook, release := slowShardHook(250 * time.Millisecond)
	reg := obs.NewRegistry()
	r := newTestRouter(t, Config{
		Shards: 2, Machine: 16, Metrics: reg,
		RebalanceP99:      20, // ms; shard 0's warm sample is ~250ms
		RebalanceInterval: 10 * time.Millisecond,
		Factory: basicFactory(t, schedd.NewManualClock(0), func(idx int, cfg *schedd.Config) {
			cfg.MaxBatch = 1 // the parked writer holds exactly one job
			if idx == 0 {
				cfg.ILP = ilpCfg(hook)
			}
		}),
	})
	r.Start()
	released := false
	defer func() {
		if !released {
			close(release)
		}
		stopRouter(t, r)
	}()

	// One honestly-planned job per shard: shard 0 slow (~250ms sample),
	// shard 1 fast — that asymmetry is the p99 divergence signal.
	slow, err := r.Core(0).Submit(schedd.SubmitRequest{Width: 1, Estimate: 10})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, r.global(0, slow.ID))
	fast, err := r.Core(1).Submit(schedd.SubmitRequest{Width: 1, Estimate: 10})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, r.global(1, fast.ID))

	// Park shard 0's writer on the next solve, then build the backlog:
	// two unkeyed jobs (stealable) and one keyed job (pinned).
	if _, err := r.Core(0).Submit(schedd.SubmitRequest{Width: 1, Estimate: 10}); err != nil {
		t.Fatal(err) // consumed by the writer, parked in its solve
	}
	var queued []int
	for i := 0; i < 2; i++ {
		resp, err := r.Core(0).Submit(schedd.SubmitRequest{Width: 1, Estimate: 10})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, resp.ID)
	}
	pinned, err := r.Core(0).Submit(schedd.SubmitRequest{Width: 1, Estimate: 10, IdempotencyKey: "pinned"})
	if err != nil {
		t.Fatal(err)
	}

	// The maintenance loop must observe the divergence and migrate the
	// two unkeyed queued jobs.
	deadline := time.Now().Add(10 * time.Second)
	for counterValue(reg, "shard.jobs.migrated") < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("rebalancer migrated %d jobs, want 2 (p99 shard0=%.1f shard1=%.1f)",
				counterValue(reg, "shard.jobs.migrated"),
				r.Core(0).PlanLatencyQuantile(0.99), r.Core(1).PlanLatencyQuantile(0.99))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := counterValue(reg, "shard.rebalances"); got < 1 {
		t.Errorf("shard.rebalances = %d, want >= 1", got)
	}

	for _, local := range queued {
		gOld := r.global(0, local)
		// The old global ID must keep resolving (via the alias) and the
		// job must land planned on shard 1.
		st := waitState(t, r, gOld)
		if st.Shard != 1 {
			t.Errorf("migrated job %d lives on shard %d, want 1", gOld, st.Shard)
		}
		if st.ID%2 != 1 {
			t.Errorf("migrated job %d resolved to id %d, not a shard-1 id", gOld, st.ID)
		}
		// The source core must no longer know the job...
		if _, ok := r.Core(0).Job(local); ok {
			t.Errorf("source core still owns migrated job %d", local)
		}
		// ...and the target must hold the dedup entry that makes any
		// hand-off retry exactly-once.
		again, err := r.Core(1).Submit(schedd.SubmitRequest{
			Width: 1, Estimate: 10, IdempotencyKey: fmt.Sprintf("mig:0:%d", local),
		})
		if err != nil || !again.Deduplicated {
			t.Errorf("migration key of job %d not deduplicated at target: %+v %v", local, again, err)
		}
	}
	// The keyed job must never migrate: it stays queued on shard 0.
	if st, ok := r.Job(r.global(0, pinned.ID)); !ok || st.State != schedd.StateQueued {
		t.Errorf("pinned keyed job state %+v ok=%v, want queued on shard 0", st, ok)
	}

	// Unpark shard 0, drain, and check the exactly-once ledger: six
	// jobs total, two of which migrated — exactly 3 planned per shard.
	close(release)
	released = true
	final, err := r.Stop(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if final.Counts.Planned != 6 {
		t.Errorf("final merged planned = %d, want 6 (each job exactly once)", final.Counts.Planned)
	}
	if p0, p1 := final.PerShard[0].Counts.Planned, final.PerShard[1].Counts.Planned; p0 != 3 || p1 != 3 {
		t.Errorf("per-shard planned = %d/%d, want 3/3", p0, p1)
	}
}

// parkHook parks every solve call on the returned channel: the first
// submission stalls the writer loop so later ones pile up in the queue.
func parkHook() (func(solvepipe.SolveFunc) solvepipe.SolveFunc, chan struct{}) {
	release := make(chan struct{})
	hook := func(base solvepipe.SolveFunc) solvepipe.SolveFunc {
		return func(ctx context.Context, m *ilpsched.Model, opt mip.Options) (*ilpsched.Solution, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return base(ctx, m, opt)
		}
	}
	return hook, release
}

// walFactory builds WAL-backed cores under dir/shard-<i>; slowHook, if
// non-nil, parks shard 0's solver (for building a queued backlog).
// Returned logs are indexed by shard for crash (Abort) control.
func walFactory(t *testing.T, dir string, clock schedd.Clock, slowHook func(solvepipe.SolveFunc) solvepipe.SolveFunc) (CoreFactory, []*wal.Log) {
	logs := make([]*wal.Log, 2)
	factory := func(idx, machine int) (schedd.Config, error) {
		log, rep, err := wal.Open(wal.Options{Dir: filepath.Join(dir, fmt.Sprintf("shard-%d", idx)), NoSync: true})
		if err != nil {
			return schedd.Config{}, err
		}
		logs[idx] = log
		cfg := schedd.Config{
			Scheduler:  newScheduler(t),
			Clock:      clock,
			QueueBound: 64,
			MaxBatch:   1,
			WAL:        log,
			Recovery:   rep,
			Metrics:    obs.NewRegistry(),
		}
		if idx == 0 && slowHook != nil {
			cfg.ILP = ilpCfg(slowHook)
		}
		return cfg, nil
	}
	return factory, logs
}

// TestMigrationCrashRecovery kills the fabric (WAL aborts, the
// in-process kill -9) in the middle of a migration hand-off — one
// stolen job not yet submitted to its target (phase A), one submitted
// but unconfirmed (phase B) — and checks recovery completes both
// against the recorded target with neither loss nor duplication.
func TestMigrationCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	hook, release := parkHook()
	factory, logs := walFactory(t, dir, schedd.NewManualClock(0), hook)
	// A one-hour maintenance interval: r1's own loop must not complete
	// the hand-offs before the crash the test is staging.
	r1 := newTestRouter(t, Config{Shards: 2, Machine: 16, Factory: factory, RebalanceInterval: time.Hour})
	r1.Start()

	readyDeadline := time.Now().Add(10 * time.Second)
	for r1.Core(0).Phase() != schedd.PhaseReady || r1.Core(1).Phase() != schedd.PhaseReady {
		if time.Now().After(readyDeadline) {
			t.Fatal("cores never became ready")
		}
		time.Sleep(time.Millisecond)
	}

	// Park shard 0's writer, then queue two stealable jobs behind it.
	blocker, err := r1.Core(0).Submit(schedd.SubmitRequest{Width: 1, Estimate: 10})
	if err != nil {
		t.Fatal(err)
	}
	var locals []int
	for i := 0; i < 2; i++ {
		resp, err := r1.Core(0).Submit(schedd.SubmitRequest{Width: 1, Estimate: 10})
		if err != nil {
			t.Fatal(err)
		}
		locals = append(locals, resp.ID)
	}

	// Steal both for shard 1 (durable migrate-out records). Complete the
	// target submit for the second job only — but crash before its
	// MigrateDone confirmation lands.
	stolen := r1.Core(0).StealQueued(8, 1, 0)
	if len(stolen) != 2 {
		t.Fatalf("stole %d jobs, want 2", len(stolen))
	}
	if _, err := r1.Core(1).Submit(schedd.SubmitRequest{
		Width: stolen[1].Width, Estimate: stolen[1].Estimate, Runtime: stolen[1].Runtime,
		Source: stolen[1].Source, IdempotencyKey: stolen[1].Key,
	}); err != nil {
		t.Fatalf("phase-B target submit: %v", err)
	}

	// kill -9: poison both WALs, abandon the routers' goroutines.
	logs[0].Abort()
	logs[1].Abort()
	close(release)

	// Restart: fresh cores over the same WAL dirs, no parked solver.
	factory2, logs2 := walFactory(t, dir, schedd.NewManualClock(0), nil)
	r2 := newTestRouter(t, Config{Shards: 2, Machine: 16, Factory: factory2})
	r2.Start()
	defer func() {
		stopRouter(t, r2)
		logs2[0].Close()
		logs2[1].Close()
	}()

	// Recovery must re-drive both hand-offs against the recorded target:
	// phase A (never submitted) and phase B (submitted, unconfirmed —
	// the target-side dedup absorbs the retry).
	for _, local := range locals {
		gOld := r2.global(0, local)
		st := waitState(t, r2, gOld)
		if st.Shard != 1 {
			t.Errorf("recovered migration of job %d landed on shard %d, want 1", gOld, st.Shard)
		}
		if _, ok := r2.Core(0).Job(local); ok {
			t.Errorf("source core still owns job %d after recovered migration", local)
		}
	}
	// The blocker was durably admitted pre-crash: replay replans it on
	// shard 0.
	st := waitState(t, r2, r2.global(0, blocker.ID))
	if st.Shard != 0 {
		t.Errorf("blocker recovered on shard %d, want 0", st.Shard)
	}

	// Exactly-once ledger: the pending set drains, both migration keys
	// dedup at the target (a duplicated hand-off would have minted a
	// second ID), and exactly 3 jobs are active across the fabric — the
	// blocker on shard 0 plus the two migrated jobs on shard 1, nothing
	// lost, nothing doubled. (The manual clock never completes a job, so
	// every planned job stays active.)
	deadline := time.Now().Add(10 * time.Second)
	for {
		pending := len(r2.Core(0).PendingMigrations())
		active := len(r2.Core(0).Snapshot().Active) + len(r2.Core(1).Snapshot().Active)
		if pending == 0 && active == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ledger never converged: pending=%d active=%d, want 0 and 3", pending, active)
		}
		time.Sleep(2 * time.Millisecond)
	}
	newIDs := map[int]bool{}
	for _, m := range stolen {
		again, err := r2.Core(1).Submit(schedd.SubmitRequest{
			Width: m.Width, Estimate: m.Estimate, IdempotencyKey: m.Key,
		})
		if err != nil || !again.Deduplicated {
			t.Errorf("migration key %q not deduplicated at target after recovery: %+v %v", m.Key, again, err)
		}
		if newIDs[again.ID] {
			t.Errorf("both migration keys resolved to target id %d", again.ID)
		}
		newIDs[again.ID] = true
	}
}
