// Anytime serving end-to-end: the SLO drill behind the CI anytime-e2e
// job, plus the incumbent-adoption race test. The drill proves the
// twin/optimizer contract on a sequential (full-width) workload where
// it is structural: deadline-busting submissions are 429ed up front,
// admitted jobs never miss their planned-start SLO (FCFS fallbacks
// keep admission order, and both the step SLO guard and the anytime
// adoption gate refuse deadline-busting reorders), and the background
// optimizer still lands strictly improving incumbents in the slack
// phase. The race test hammers the writer with concurrent submissions
// and injected solve faults while validating every published snapshot
// for capacity consistency on the writer goroutine itself.
package schedd_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/dynp"
	"repro/internal/faultinject"
	"repro/internal/job"
	"repro/internal/loadgen"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/mip"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/schedd"
	"repro/internal/shard"
	"repro/internal/solvepipe"
)

// planSink records PlanImproved events and, on every published
// snapshot, re-validates the plan against machine capacity. Callbacks
// run on the writer goroutine between mutation and publish, so a
// failure here is a real adoption race, not a stale-read artifact.
type planSink struct {
	mu        sync.Mutex
	improved  []schedd.PlanImprovement
	snapshots int
	capErrs   []string
	machine   int
}

func (s *planSink) SnapshotPublished(snap *schedd.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapshots++
	if err := validatePlanCapacity(snap, s.machine); err != nil {
		s.capErrs = append(s.capErrs, fmt.Sprintf("version %d: %v", snap.Version, err))
	}
}
func (s *planSink) JobPlanned(schedd.JobStatus)   {}
func (s *planSink) JobCompleted(schedd.JobStatus) {}
func (s *planSink) PlanImproved(pi schedd.PlanImprovement) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.improved = append(s.improved, pi)
}

// validatePlanCapacity packs the snapshot's running jobs and planned
// entries into a fresh machine profile: any overflow means an adopted
// plan was staler than the queue state it replaced.
func validatePlanCapacity(snap *schedd.Snapshot, total int) error {
	rs := make([]machine.Running, 0, len(snap.Active))
	for id, st := range snap.Active {
		if st.State != schedd.StateRunning {
			continue
		}
		end := st.Start + st.Estimate
		if end <= snap.Now {
			end = snap.Now + 1
		}
		rs = append(rs, machine.Running{JobID: id, Width: st.Width, End: end})
	}
	h, err := machine.HistoryFromRunning(total, snap.Now, rs)
	if err != nil {
		return fmt.Errorf("running set: %w", err)
	}
	p := h.Profile(total)
	for _, e := range snap.Schedule {
		if e.Start < snap.Now {
			return fmt.Errorf("job %d planned in the past: start %d < now %d", e.JobID, e.Start, snap.Now)
		}
		if err := p.Reserve(e.Start, e.Start+e.Estimate, e.Width); err != nil {
			return fmt.Errorf("job %d: %w", e.JobID, err)
		}
	}
	return nil
}

// fullWidthTrace builds a sequential workload: every job needs the
// whole machine, so any schedule is a permutation and the twin's
// greedy prediction is exact. Runtimes vary (SPT beats FCFS, so the
// optimizer has real improvements to find) while the arrival gap is
// small enough that backlog builds past any fixed deadline.
func fullWidthTrace(n, procs int, gap int64) *job.Trace {
	tr := &job.Trace{Processors: procs, Note: "anytime SLO drill"}
	for i := 0; i < n; i++ {
		rt := int64(100 + (i*397)%900)
		tr.Jobs = append(tr.Jobs, &job.Job{
			ID: i + 1, Submit: int64(i) * gap, Width: procs,
			Estimate: rt, Runtime: rt,
		})
	}
	return tr
}

// fcfsScheduler is a single-policy dynP instance: FCFS keeps admission
// order, which is what makes the drill's zero-miss assertion
// structural rather than statistical.
func fcfsScheduler(t *testing.T) *dynp.Scheduler {
	t.Helper()
	m, err := metrics.ByName("SLDwA")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := dynp.New([]policy.Policy{policy.FCFS{}}, m, dynp.AdvancedDecider{})
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// TestAnytimeSLODrill is the CI drill: deadline-aware admission must
// reject some submissions under backlog, every admitted job must keep
// its planned-start SLO, and the background optimizer must adopt
// incumbents and surface them as plan-improved events.
func TestAnytimeSLODrill(t *testing.T) {
	const (
		nJobs    = 40
		procs    = 16
		gapS     = 150  // virtual seconds between submissions
		deadline = 6000 // per-job start SLO, virtual seconds
	)
	tr := fullWidthTrace(nJobs, procs, gapS)
	sink := &planSink{machine: procs}
	reg := obs.NewRegistry()
	r, err := shard.New(shard.Config{
		Shards:  1,
		Machine: procs,
		Metrics: obs.NewRegistry(),
		Factory: func(idx, machine int) (schedd.Config, error) {
			return schedd.Config{
				Scheduler:    fcfsScheduler(t),
				Clock:        schedd.NewWallClock(1000),
				QueueBound:   256,
				MaxBatch:     16,
				ReplanBuffer: 4096,
				Events:       sink,
				// The virtual clock runs on during writer passes, so
				// actual starts slip behind the twin's prediction by the
				// accumulated processing latency; the margin absorbs that
				// slip (at accel 1000, 1200 virtual seconds = 1.2 s of
				// writer wall time over a job's whole wait).
				SLOMargin: 1200,
				ILP: &schedd.ILPConfig{
					// The interval solver is starved on purpose: with a
					// 1 ms budget nearly every step falls back to the FCFS
					// schedule, so every optimization the run sees comes
					// from the background core — the "CPLEX keeps
					// improving the active plan" mode of §4, with the
					// self-tuning step reduced to keeping the plan fresh.
					StepConfig: solvepipe.StepConfig{Pipe: solvepipe.Config{
						Budget: time.Millisecond,
						MIP:    mip.Options{MaxNodes: 200000},
					}},
					Anytime:       true,
					AnytimeBudget: 2 * time.Second,
				},
				Metrics: reg,
			}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	srv := httptest.NewServer(shard.NewHandler(r))
	defer srv.Close()

	res, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:      srv.URL,
		Trace:        tr,
		Accel:        1000,
		Sources:      2,
		WaitTimeout:  2 * time.Minute,
		SLODeadlineS: deadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("anytime SLO drill:\n%s", res)

	if res.TransportErrors > 0 {
		t.Errorf("%d transport errors", res.TransportErrors)
	}
	// (a) Backlog must exceed the deadline at some point: the twin has
	// to turn submissions away with deadline-aware 429s.
	if res.RejectedSLO == 0 {
		t.Error("no deadline-aware 429s: the twin never rejected a submission")
	}
	if res.Accepted == 0 || res.Accepted == res.Submitted {
		t.Errorf("accepted %d of %d: the drill needs both admitted and rejected jobs",
			res.Accepted, res.Submitted)
	}
	// (b) Zero admitted jobs miss their planned-start SLO: FCFS keeps
	// admission order, and the step SLO guard plus the anytime adoption
	// gate refuse any reordering past a deadline.
	if res.SLOMisses != 0 {
		t.Errorf("%d admitted jobs were planned past their deadline", res.SLOMisses)
	}
	// (c) The background optimizer must actually improve the serving
	// plan, not just burn cycles.
	if res.AnytimeAdopted == 0 {
		t.Error("no anytime incumbents adopted")
	}
	if res.DroppedAccepted != 0 {
		t.Errorf("%d accepted jobs were never planned", res.DroppedAccepted)
	}

	// The health endpoint must expose plan freshness.
	var health shard.HealthJSON
	getJSON(t, srv.URL+"/v1/healthz", &health)
	if health.PlanAgeMs < 0 {
		t.Errorf("negative plan age %f", health.PlanAgeMs)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	final, err := r.Stop(ctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}

	sink.mu.Lock()
	improved, snapshots := len(sink.improved), sink.snapshots
	for _, pi := range sink.improved {
		if pi.Jobs <= 0 || pi.Seq <= 0 || pi.Objective <= 0 {
			t.Errorf("malformed plan-improved event: %+v", pi)
		}
	}
	capErrs := append([]string(nil), sink.capErrs...)
	sink.mu.Unlock()
	if snapshots == 0 {
		t.Error("no snapshots published")
	}
	if improved == 0 {
		t.Error("no PlanImproved events despite adopted incumbents")
	}
	for _, e := range capErrs {
		t.Errorf("snapshot capacity violation: %s", e)
	}
	if final.Counts.Planned != int64(res.Accepted) {
		t.Errorf("drained with %d planned of %d accepted", final.Counts.Planned, res.Accepted)
	}
	// Deadlines and the latched miss flag must be visible per job; with
	// zero misses, no status may carry one.
	for id, st := range r.Core(0).Snapshot().Active {
		if st.SLOMiss {
			t.Errorf("job %d latched an SLO miss in the final snapshot", id)
		}
	}
}

// TestAnytimeAdoptionRace floods the writer with concurrent
// submissions while the background optimizer races it with incumbents
// and a fault injector breaks a third of the solves. Run under -race
// this is the adoption-staleness drill: every published snapshot is
// capacity-validated on the writer goroutine, so an incumbent adopted
// against outdated queue state surfaces as a hard failure, not a
// heisenbug.
func TestAnytimeAdoptionRace(t *testing.T) {
	const (
		nJobs = 150
		procs = 32
	)
	inj := faultinject.New(faultinject.NewProbability(11, 0.3))
	sink := &planSink{machine: procs}
	reg := obs.NewRegistry()
	core, err := schedd.New(schedd.Config{
		Machine:    procs,
		Scheduler:  fcfsScheduler(t),
		Clock:      schedd.NewWallClock(20000),
		QueueBound: 1024,
		MaxBatch:   32,
		Events:     sink,
		ILP: &schedd.ILPConfig{
			// Starved steps (most fall back to the policy schedule, some
			// fault outright) leave suboptimal plans behind on purpose:
			// the background optimizer then has real improvements to
			// race the writer with.
			StepConfig: solvepipe.StepConfig{Pipe: solvepipe.Config{
				Budget: 2 * time.Millisecond,
				MIP:    mip.Options{MaxNodes: 200000},
				Hook:   inj.Hook,
			}},
			Anytime:       true,
			AnytimeBudget: 300 * time.Millisecond,
		},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	core.Start()

	var wg sync.WaitGroup
	accepted := make([]int, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < nJobs; i += 8 {
				est := int64(60 + (i*113)%600)
				_, err := core.Submit(schedd.SubmitRequest{
					Width:    1 + i%8,
					Estimate: est,
					Runtime:  est,
					Source:   fmt.Sprintf("src-%d", w),
				})
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				accepted[w]++
				time.Sleep(time.Duration(2+i%7) * time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	// Quiet settle window: with submissions over, the optimizer gets
	// uninterrupted sessions against a stable queue — the adoption
	// nudge path runs against live completions instead of going stale
	// on every batch.
	time.Sleep(300 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	final, err := core.Stop(ctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	total := 0
	for _, n := range accepted {
		total += n
	}
	if total != nJobs {
		t.Fatalf("accepted %d of %d", total, nJobs)
	}
	if final.Counts.Planned != int64(nJobs) {
		t.Errorf("drained with %d planned of %d accepted", final.Counts.Planned, nJobs)
	}

	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, e := range sink.capErrs {
		t.Errorf("snapshot capacity violation: %s", e)
	}
	if sink.snapshots == 0 {
		t.Error("no snapshots published")
	}
	// Counter consistency: the writer can only adopt incumbents the
	// solver published, and every inspected incumbent lands in exactly
	// one bucket.
	found := reg.Counter("anytime.incumbents.found").Value()
	adopted := reg.Counter("anytime.incumbents.adopted").Value()
	stale := reg.Counter("anytime.incumbents.stale").Value()
	rejected := reg.Counter("anytime.incumbents.rejected").Value()
	if adopted != core.AnytimeAdopted() {
		t.Errorf("AnytimeAdopted()=%d, counter=%d", core.AnytimeAdopted(), adopted)
	}
	if adopted+stale+rejected > found {
		t.Errorf("inspected %d incumbents (adopted %d, stale %d, rejected %d) but only %d were published",
			adopted+stale+rejected, adopted, stale, rejected, found)
	}
	if len(sink.improved) != int(adopted) {
		t.Errorf("%d PlanImproved events for %d adoptions", len(sink.improved), adopted)
	}
	t.Logf("race drill: %d snapshots, incumbents found %d / adopted %d / stale %d / rejected %d, %d faults injected",
		sink.snapshots, found, adopted, stale, rejected, len(inj.Injected()))
}
