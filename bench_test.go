// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured numbers):
//
//	E1/E4 BenchmarkTable1_CPLEXvsDynP     — Table 1 + averages row
//	E2    BenchmarkFigure1_MachineHistory — Figure 1
//	E3    BenchmarkSelfTuningStep25Jobs   — "< 10 ms for 25 waiting jobs"
//	E5    BenchmarkConsecutiveStepBlowup  — unpredictable compute times
//	E6    BenchmarkWorkloadInterarrival   — CTC mean interarrival 369 s
//	E7    BenchmarkDeciderAblation        — simple vs advanced decider
//	E8    BenchmarkTimeScaleSweep         — quality vs time scale
//
// E9 (the ILP's ARTwW objective against the SLDwA metric) is an identity,
// not a measurement: see TestSLDwAProportionalToARTwW in internal/metrics.
//
// Each benchmark prints its table once; absolute numbers depend on the
// host, the shape (who wins, by what factor) is what reproduces the paper.
package repro

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dynp"
	"repro/internal/ilpsched"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/mip"
	"repro/internal/policy"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/workload"
)

// ---------------------------------------------------------------- E1/E4

var table1Once sync.Once

// BenchmarkTable1_CPLEXvsDynP regenerates the paper's Table 1: at sampled
// self-tuning steps of a CTC-like simulation the time-indexed ILP is
// solved (Eq. 6 time scale, §3.2 compaction) and compared against the
// best basic policy with the SLDwA metric.
func BenchmarkTable1_CPLEXvsDynP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := workload.Generate(workload.CTC(), 220, 7)
		if err != nil {
			b.Fatal(err)
		}
		cmp := core.NewComparator(5000)
		cmp.MIP.TimeLimit = 4 * time.Second
		st := &core.Study{Comparator: cmp, SampleEvery: 3, MinJobs: 4, MaxJobs: 20}
		res, err := core.RunStudy(tr, st, sim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(st.Rows) == 0 {
			b.Fatal("no comparison rows produced")
		}
		avg := st.Averages()
		table1Once.Do(func() {
			fmt.Printf("\n=== E1: Table 1 — CPLEX-substitute problem sizes, quality, compute time ===\n")
			fmt.Printf("(simulated %d jobs, %d steps, %d switches; %d comparisons, %d errors)\n\n",
				len(res.Completed), res.Steps, res.Switches, len(st.Rows), st.Errors)
			fmt.Print(core.FormatTable1(st.Rows, avg))
			fmt.Printf("\nE4 paper: average loss ~0.7%%, 5 min average scale, ~22 jobs/step\n")
			fmt.Printf("E4 here:  average loss %+.2f%%, %d min average scale, %d jobs/step\n",
				avg.LossPercent, avg.TimeScale/60, avg.Jobs)
			// §3 "power": quality earned per second of scheduler compute.
			policyPower := core.Power(avg.Quality, 40*time.Microsecond)
			ilpPower := core.Power(1, avg.ComputeTime)
			fmt.Printf("power (quality/second): policy %.3g vs ILP %.3g — %.0fx in favor of the\n"+
				"basic policies, the paper's practicality argument in one number\n\n",
				policyPower, ilpPower, policyPower/ilpPower)
		})
	}
}

// ---------------------------------------------------------------- E2

var figure1Once sync.Once

// BenchmarkFigure1_MachineHistory regenerates Figure 1: the machine
// history (time stamp, free resources) induced by the running jobs.
func BenchmarkFigure1_MachineHistory(b *testing.B) {
	running := []machine.Running{
		{JobID: 1, Width: 48, End: 1800},
		{JobID: 2, Width: 32, End: 1800}, // same end: one time stamp
		{JobID: 3, Width: 16, End: 5400},
		{JobID: 4, Width: 8, End: 14400},
	}
	var h machine.History
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err = machine.HistoryFromRunning(128, 600, running)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if !h.Monotone() {
		b.Fatal("history not monotone")
	}
	figure1Once.Do(func() {
		fmt.Printf("\n=== E2: Figure 1 — example machine history ===\n")
		fmt.Print(h.String())
		fmt.Println("free resources increase monotonously: only running jobs are considered")
	})
}

// ---------------------------------------------------------------- E3

var stepOnce sync.Once

// BenchmarkSelfTuningStep25Jobs measures one full self-tuning step (three
// policy schedules + decision) with 25 waiting jobs. The paper reports
// "less than 10 milliseconds" on 2004 hardware.
func BenchmarkSelfTuningStep25Jobs(b *testing.B) {
	r := stats.NewRand(11)
	base := machine.New(430, 0)
	base.Reserve(0, 7200, 200)
	var waiting []*job.Job
	for k := 0; k < 25; k++ {
		est := int64(r.Intn(14400) + 60)
		waiting = append(waiting, &job.Job{ID: k + 1, Submit: int64(r.Intn(3600)),
			Width: r.Intn(64) + 1, Estimate: est, Runtime: est})
	}
	sched := dynp.MustNew(policy.Standard(), metrics.SLDwA{}, dynp.AdvancedDecider{})
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Step(3600, base, waiting); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perStep := time.Since(start) / time.Duration(b.N)
	stepOnce.Do(func() {
		fmt.Printf("\n=== E3: self-tuning step cost, 25 waiting jobs ===\n")
		fmt.Printf("paper: < 10 ms per step (2004 hardware)\n")
		fmt.Printf("here:  %v per step (%d samples)\n\n", perStep, b.N)
	})
}

// ---------------------------------------------------------------- E5

var blowupOnce sync.Once

// blowupModel builds the E5 blow-up instance with n jobs (seed 1234) on
// the minute grid: near-tied widths and durations on a 16-processor
// machine, the degenerate plateau that makes branch and bound
// unpredictable. The solver benchmarks and the sparse-basis telemetry
// check reuse it.
func blowupModel(n int) (*ilpsched.Model, error) {
	r := stats.NewRand(1234)
	jobs := make([]*job.Job, n)
	for k := 0; k < n; k++ {
		est := int64(1800 + 60*r.Intn(4))
		jobs[k] = &job.Job{ID: k + 1, Submit: 0, Width: 5 + r.Intn(3),
			Estimate: est, Runtime: est}
	}
	base := machine.New(16, 0)
	var horizon int64
	for _, p := range policy.Standard() {
		s, err := policy.Build(p, 0, base, jobs)
		if err != nil {
			return nil, err
		}
		if mk := s.Makespan(); mk > horizon {
			horizon = mk
		}
	}
	inst := &ilpsched.Instance{Now: 0, Machine: 16, Base: base, Jobs: jobs, Horizon: horizon}
	return ilpsched.Build(inst, 60)
}

// BenchmarkConsecutiveStepBlowup reproduces the paper's observation that
// "it is impossible to predict the compute time of CPLEX from previous
// runs": one additional submitted job barely changes the problem size but
// can multiply the solve effort.
func BenchmarkConsecutiveStepBlowup(b *testing.B) {
	solve := func(n int) (*ilpsched.Solution, *ilpsched.Model, time.Duration) {
		m, err := blowupModel(n)
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		sol, err := m.Solve(mip.Options{MaxNodes: 20000, TimeLimit: 15 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		return sol, m, time.Since(t0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solA, mA, dA := solve(6)
		solB, mB, dB := solve(7) // one more job
		blowupOnce.Do(func() {
			fmt.Printf("\n=== E5: one extra job, unpredictable compute time ===\n")
			t := table.New("step", "jobs", "variables", "nodes", "LP iters", "time", "status")
			t.Row("k", len(mA.Inst.Jobs), mA.NumVariables(), solA.MIP.Nodes, solA.MIP.LPIters,
				dA.Round(time.Millisecond).String(), solA.MIP.Status.String())
			t.Row("k+1", len(mB.Inst.Jobs), mB.NumVariables(), solB.MIP.Nodes, solB.MIP.LPIters,
				dB.Round(time.Millisecond).String(), solB.MIP.Status.String())
			fmt.Print(t.String())
			ratio := dB.Seconds() / dA.Seconds()
			fmt.Printf("compute-time ratio (k+1)/k = %.1fx for a ~15%% larger problem "+
				"(paper: 2.5 h -> 41 h, ~16x)\n\n", ratio)
		})
	}
}

// ---------------------------------------------------------------- E6

var arrivalOnce sync.Once

// BenchmarkWorkloadInterarrival checks the generator calibration against
// the paper's CTC statistic: mean interarrival time 369 seconds.
func BenchmarkWorkloadInterarrival(b *testing.B) {
	var tr *job.Trace
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err = workload.Generate(workload.CTC(), 20000, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	arrivalOnce.Do(func() {
		fmt.Printf("\n=== E6: CTC workload calibration ===\n")
		fmt.Printf("paper: mean interarrival 369 s; here: %.1f s over %d jobs\n\n",
			tr.MeanInterarrival(), len(tr.Jobs))
	})
}

// ---------------------------------------------------------------- E7

var deciderOnce sync.Once

// BenchmarkDeciderAblation compares the simple and advanced deciders
// (§2): the advanced decider fixes the four wrong tie decisions of the
// simple one by staying with the old policy on ties.
func BenchmarkDeciderAblation(b *testing.B) {
	tr, err := workload.GeneratePhased([]workload.Phase{
		{Cfg: workload.ShortBurst(), Jobs: 250},
		{Cfg: workload.LongParallel(), Jobs: 100},
		{Cfg: workload.ShortBurst(), Jobs: 250},
	}, 77)
	if err != nil {
		b.Fatal(err)
	}
	type outcome struct {
		sldwa    float64
		switches int
		use      map[string]int
	}
	run := func(dec dynp.Decider) outcome {
		sched := dynp.MustNew(policy.Standard(), metrics.SLDwA{}, dec)
		s, err := sim.New(tr, sched, sim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		return outcome{res.SlowdownWeightedByArea(), res.Switches, res.PolicyUse}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simple := run(dynp.SimpleDecider{})
		advanced := run(dynp.AdvancedDecider{})
		deciderOnce.Do(func() {
			fmt.Printf("\n=== E7: decider ablation (phased workload, %d jobs) ===\n", len(tr.Jobs))
			t := table.New("decider", "SLDwA", "switches", "policy use")
			t.Row("simple", fmt.Sprintf("%.3f", simple.sldwa), simple.switches, fmt.Sprint(simple.use))
			t.Row("advanced", fmt.Sprintf("%.3f", advanced.sldwa), advanced.switches, fmt.Sprint(advanced.use))
			fmt.Print(t.String())
			fmt.Printf("the advanced decider avoids tie-induced switches (fewer or equal switches)\n\n")
		})
	}
}

// ---------------------------------------------------------------- E8

var sweepOnce sync.Once

// BenchmarkTimeScaleSweep measures the §3.2 trade-off: coarser grids
// shrink the model (memory, Eq. 6) but cost schedule quality, to the
// point that a basic policy can beat the time-scaled "optimal" schedule
// (quality > 1, negative loss).
func BenchmarkTimeScaleSweep(b *testing.B) {
	r := stats.NewRand(2718)
	base := machine.New(16, 0)
	base.Reserve(0, 77, 9)
	jobs := make([]*job.Job, 6)
	for k := range jobs {
		// Short durations keep the one-second grid tractable (the scale-1
		// row is the exact reference the sweep is anchored to).
		est := int64(r.Intn(150) + 30)
		jobs[k] = &job.Job{ID: k + 1, Submit: 0, Width: r.Intn(10) + 1,
			Estimate: est, Runtime: est}
	}
	var horizon int64
	best := 0.0
	m := metrics.SLDwA{}
	for i, p := range policy.Standard() {
		s, err := policy.Build(p, 0, base, jobs)
		if err != nil {
			b.Fatal(err)
		}
		if mk := s.Makespan(); mk > horizon {
			horizon = mk
		}
		if v := m.Eval(s); i == 0 || v < best {
			best = v
		}
	}
	inst := &ilpsched.Instance{Now: 0, Machine: 16, Base: base, Jobs: jobs, Horizon: horizon}
	scales := []int64{1, 15, 30, 60, 120}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		type row struct {
			scale   int64
			vars    int
			quality float64
			nodes   int
			dur     time.Duration
			status  mip.Status
		}
		var rows []row
		for _, sc := range scales {
			model, err := ilpsched.Build(inst, sc)
			if err != nil {
				b.Fatal(err)
			}
			t0 := time.Now()
			sol, err := model.Solve(mip.Options{MaxNodes: 100000, TimeLimit: 25 * time.Second})
			if err != nil {
				b.Fatal(err)
			}
			if sol.Compacted == nil {
				b.Fatalf("scale %d: no schedule (%v)", sc, sol.MIP.Status)
			}
			rows = append(rows, row{sc, model.NumVariables(),
				metrics.Quality(m, m.Eval(sol.Compacted), best), sol.MIP.Nodes, time.Since(t0), sol.MIP.Status})
		}
		sweepOnce.Do(func() {
			fmt.Printf("\n=== E8: time-scale ablation (quality of ILP vs best policy) ===\n")
			t := table.New("scale[s]", "variables", "quality", "loss[%]", "nodes", "time", "status")
			for _, rw := range rows {
				t.Row(rw.scale, rw.vars, fmt.Sprintf("%.4f", rw.quality),
					fmt.Sprintf("%+.2f", metrics.LossPercent(rw.quality)),
					rw.nodes, rw.dur.Round(time.Millisecond).String(), rw.status.String())
			}
			fmt.Print(t.String())
			fmt.Printf("quality <= 1 means the ILP wins; coarse scales shrink the model " +
				"but can hand the win to the policy (the paper's negative-loss rows).\n" +
				"note how the one-second grid needs orders of magnitude more compute to\n" +
				"reach the same schedule the minute grid proves optimal in milliseconds\n\n")
		})
	}
}

// ---------------------------------------------------------------- E10

var queueingOnce sync.Once

// BenchmarkQueueingVsPlanning contrasts the queuing-based disciplines
// (strict FCFS, EASY backfilling) with the planning-based system the
// paper builds on (planning FCFS = conservative backfilling, and
// self-tuning dynP) on the same CTC-like trace — the [4] "queuing vs
// planning" backdrop of §2.
func BenchmarkQueueingVsPlanning(b *testing.B) {
	tr, err := workload.Generate(workload.CTC(), 600, 21)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fc, err := queueing.Simulate(tr, queueing.FCFSNoBackfill, 0)
		if err != nil {
			b.Fatal(err)
		}
		ez, err := queueing.Simulate(tr, queueing.EASY, 0)
		if err != nil {
			b.Fatal(err)
		}
		planFCFS := simulatePlanning(b, tr, []policy.Policy{policy.FCFS{}}, dynp.SimpleDecider{})
		planDynP := simulatePlanning(b, tr, policy.Standard(), dynp.AdvancedDecider{})
		queueingOnce.Do(func() {
			fmt.Printf("\n=== E10: queueing vs planning (CTC-like, %d jobs) ===\n", len(tr.Jobs))
			t := table.New("system", "SLDwA", "mean wait [s]", "bounded sld", "util")
			fo := fc.Observe(tr.Processors)
			eo := ez.Observe(tr.Processors)
			t.Row("queueing FCFS (no backfill)", f3(fo.SLDwA), f0(fo.MeanWait), f3(fo.BoundedSlowdown), f3(fo.Utilization))
			t.Row("queueing EASY backfilling", f3(eo.SLDwA), f0(eo.MeanWait), f3(eo.BoundedSlowdown), f3(eo.Utilization))
			t.Row("planning FCFS (conservative)", f3(planFCFS.SlowdownWeightedByArea()),
				f0(planFCFS.MeanWaitTime()), "", f3(planFCFS.Utilization(tr.Processors)))
			t.Row("planning self-tuning dynP", f3(planDynP.SlowdownWeightedByArea()),
				f0(planDynP.MeanWaitTime()), "", f3(planDynP.Utilization(tr.Processors)))
			fmt.Print(t.String())
			fmt.Printf("EASY backfilled %d jobs; dynP switched %d times (%v)\n\n",
				ez.Backfilled, planDynP.Switches, planDynP.PolicyUse)
		})
	}
}

func simulatePlanning(b *testing.B, tr *job.Trace, pols []policy.Policy, dec dynp.Decider) *sim.Result {
	b.Helper()
	sched := dynp.MustNew(pols, metrics.SLDwA{}, dec)
	s, err := sim.New(tr, sched, sim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }

// ---------------------------------------------------------------- E11

var estimateOnce sync.Once

// BenchmarkEstimateAccuracy is an ablation on the paper's premise that
// planning-based systems schedule with user estimates: how much do
// inaccurate estimates cost? The same arrival pattern runs once with
// exact estimates and once with the CTC-like over-estimation factors.
func BenchmarkEstimateAccuracy(b *testing.B) {
	cfgSloppy := workload.CTC()
	cfgExact := workload.CTC()
	cfgExact.ExactEstimateProb = 1.0
	sloppy, err := workload.Generate(cfgSloppy, 500, 55)
	if err != nil {
		b.Fatal(err)
	}
	exactTr, err := workload.Generate(cfgExact, 500, 55)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := simulatePlanning(b, sloppy, policy.Standard(), dynp.AdvancedDecider{})
		re := simulatePlanning(b, exactTr, policy.Standard(), dynp.AdvancedDecider{})
		estimateOnce.Do(func() {
			fmt.Printf("\n=== E11: estimate accuracy ablation (same arrivals & runtimes) ===\n")
			t := table.New("estimates", "SLDwA", "mean wait [s]", "switches")
			t.Row("CTC-like over-estimates", f3(rs.SlowdownWeightedByArea()), f0(rs.MeanWaitTime()), rs.Switches)
			t.Row("exact estimates", f3(re.SlowdownWeightedByArea()), f0(re.MeanWaitTime()), re.Switches)
			fmt.Print(t.String())
			fmt.Printf("planning with exact estimates packs tighter plans; over-estimation\n" +
				"wastes reserved capacity until early completions trigger replans\n\n")
		})
	}
}
