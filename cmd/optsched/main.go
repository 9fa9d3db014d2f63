// Command optsched solves one quasi off-line self-tuning-step instance to
// optimality with the time-indexed ILP (the CPLEX-substitute pipeline):
// it synthesizes a random step (waiting jobs plus running-job machine
// history), prints the machine history in the format of the paper's
// Figure 1, schedules with FCFS/SJF/LJF, solves the ILP at the Eq. 6 (or
// a fixed) time scale, compacts the solution, and reports the quality and
// performance loss of every policy. Optionally the model is written as a
// CPLEX LP file.
//
// Usage:
//
//	optsched -jobs 10 -machine 64 -seed 3 -history -scale 0 -lp model.lp
//	optsched -jobs 12 -trace solve.jsonl -verbose -cpuprofile cpu.pprof
//	optsched -jobs 20 -solve-budget 5s -solve-retries 2 -max-model-vars 50000
//
// The solve runs through the fault-tolerant retry ladder
// (internal/solvepipe): a timed-out, oversized, or grid-infeasible
// attempt is retried under a coarser Eq. 6 time scale with an enlarged
// budget, up to -solve-retries times. With -fallback (the default) an
// exhausted ladder degrades to reporting the policy schedules instead
// of erroring. With -presolve (the default) each rung's model is reduced
// before the solver sees it — the best policy schedule bounds the grid
// and seeds the branch and bound — and -max-model-vars guards the
// *reduced* size.
//
// Observability: -trace writes the solver's structured JSONL events
// (mip.solve span, mip.incumbent, mip.bound, mip.cuts), -verbose prints
// solve-progress lines on stderr, and -cpuprofile/-memprofile write
// pprof profiles.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/cliutil"
	"repro/internal/ilpsched"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/mip"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/schedule"
	"repro/internal/solvepipe"
	"repro/internal/stats"
	"repro/internal/table"
)

func main() {
	var (
		nJobs      = flag.Int("jobs", 8, "number of waiting jobs")
		mSize      = flag.Int("machine", 64, "machine size")
		seed       = flag.Uint64("seed", 1, "instance seed")
		scale      = flag.Int64("scale", 0, "time scale in seconds (0 = Eq. 6)")
		nodes      = flag.Int("nodes", 20000, "branch-and-bound node limit")
		workers    = flag.Int("workers", 0, "parallel branch-and-bound workers (0 = 1, serial and deterministic)")
		timeLimit  = flag.Duration("timeout", 30*time.Second, "branch-and-bound time limit")
		budget     = flag.Duration("solve-budget", 0, "per-attempt budget of the retry ladder (0 = -timeout)")
		retries    = flag.Int("solve-retries", 0, "extra retry-ladder attempts under a coarser grid")
		maxVars    = flag.Int("max-model-vars", 0, "refuse to build models above this many variables (0 = unguarded; with -presolve the guard sees the reduced size)")
		fallback   = flag.Bool("fallback", true, "report the best policy schedule when the ladder fails instead of erroring")
		presolve   = flag.Bool("presolve", true, "reduce the model with the presolve pass before solving")
		history    = flag.Bool("history", false, "print the machine history (Figure 1)")
		lpOut      = flag.String("lp", "", "write the model as a CPLEX LP file")
		metricStr  = flag.String("metric", "SLDwA", "comparison metric")
		traceOut   = flag.String("trace", "", "write a structured JSONL event trace to this file")
		verbose    = flag.Bool("verbose", false, "print solve-progress lines and counters on stderr")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	m, err := metrics.ByName(*metricStr)
	if err != nil {
		fail(err)
	}
	r := stats.NewRand(*seed)

	// Running jobs occupy the machine: the machine history.
	var running []machine.Running
	busy := 0
	for busy < *mSize/2 {
		w := r.Intn(*mSize/4+1) + 1
		running = append(running, machine.Running{
			JobID: 1000 + len(running), Width: w,
			End: int64(r.Intn(5000) + 300),
		})
		busy += w
	}
	hist, err := machine.HistoryFromRunning(*mSize, 0, running)
	if err != nil {
		fail(err)
	}
	if *history {
		fmt.Println("machine history (Figure 1):")
		fmt.Print(hist.String())
	}
	base := hist.Profile(*mSize)

	jobs := make([]*job.Job, *nJobs)
	for i := range jobs {
		est := int64(r.Intn(7200) + 120)
		jobs[i] = &job.Job{ID: i + 1, Submit: 0, Width: r.Intn(*mSize/2) + 1,
			Estimate: est, Runtime: est}
	}

	// Policy schedules; the worst makespan is the ILP horizon T.
	var horizon int64
	type polRes struct {
		name  string
		value float64
	}
	var pols []polRes
	var bestVal float64
	var bestName string
	var bestSched *schedule.Schedule
	for i, p := range policy.Standard() {
		s, err := policy.Build(p, 0, base, jobs)
		if err != nil {
			fail(err)
		}
		if mk := s.Makespan(); mk > horizon {
			horizon = mk
		}
		v := m.Eval(s)
		pols = append(pols, polRes{p.Name(), v})
		if i == 0 || metrics.Better(m, v, bestVal) {
			bestVal, bestName, bestSched = v, p.Name(), s
		}
	}

	inst := &ilpsched.Instance{Now: 0, Machine: *mSize, Base: base, Jobs: jobs, Horizon: horizon}
	sc := *scale
	if sc <= 0 {
		sc = ilpsched.DefaultScaling().TimeScale(inst)
	}
	fmt.Printf("instance: %d jobs, makespan bound %d s, acc. runtime %d s, time scale %d s\n",
		len(jobs), inst.MaxMakespan(), inst.AccumulatedRuntime(), sc)

	sizeLimit := ilpsched.SizeLimit{MaxVariables: *maxVars}
	model, err := ilpsched.BuildGuarded(inst, sc, sizeLimit)
	if err != nil && !errors.Is(err, ilpsched.ErrModelTooLarge) {
		fail(err)
	}
	if err != nil {
		// The guard refused the first-rung model; the ladder below will
		// escalate to a coarser grid.
		fmt.Printf("model: %v\n", err)
	} else {
		fmt.Printf("model: %d binary variables, %d rows, %d matrix entries\n",
			model.NumVariables(), model.NumConstraints(), model.MatrixEntries())
		if *lpOut != "" {
			f, err := os.Create(*lpOut)
			if err != nil {
				fail(err)
			}
			if err := model.WriteLP(f); err != nil {
				fail(err)
			}
			f.Close()
			fmt.Printf("wrote LP file %s\n", *lpOut)
		}
	}

	opts := mip.Options{MaxNodes: *nodes, TimeLimit: *timeLimit, Workers: *workers}
	tracer, flush, err := cliutil.OpenTracer("optsched", *traceOut)
	if err != nil {
		fail(err)
	}
	cliutil.ExitOnSignal(flush)
	opts.Trace = tracer
	reg := obs.NewRegistry()
	opts.Metrics = reg
	if *verbose {
		opts.Progress = printProgress
	}
	perAttempt := *budget
	if perAttempt <= 0 {
		perAttempt = *timeLimit
	}
	out := solvepipe.Solve(context.Background(), solvepipe.Config{
		Budget:      perAttempt,
		Retries:     *retries,
		FixedScale:  sc,
		Limit:       sizeLimit,
		MIP:         opts,
		Seed:        bestSched,
		PresolveOff: !*presolve,
		Trace:       tracer,
		Metrics:     reg,
	}, inst)
	flush()
	if len(out.Attempts) > 1 || out.Failed() {
		at := table.New("rung", "scale[s]", "budget", "failure", "elapsed")
		for i, a := range out.Attempts {
			at.Row(i, a.Scale, a.Budget.String(), a.Failure.String(),
				a.Elapsed.Round(time.Millisecond).String())
		}
		fmt.Print(at.String())
	}
	if out.Failed() {
		if !*fallback {
			fail(out.Err)
		}
		fmt.Printf("solve pipeline exhausted (%v); falling back to best policy %s\n",
			out.Err, bestName)
		t := table.New("schedule", *metricStr)
		for _, pr := range pols {
			t.Row(pr.name, fmt.Sprintf("%.4f", pr.value))
		}
		fmt.Print(t.String())
		return
	}
	sol := out.Solution
	if out.Scale != sc {
		fmt.Printf("retry ladder settled on time scale %d s\n", out.Scale)
	}
	if ps := out.Presolve; ps != nil {
		fmt.Printf("presolve: %d -> %d variables, %d -> %d rows, %d jobs fixed outright\n",
			ps.VarsBefore, ps.VarsAfter, ps.RowsBefore, ps.RowsAfter, ps.JobsFixed)
	}
	fmt.Print(sol.MIP.Report().String())
	if *verbose {
		fmt.Fprint(os.Stderr, reg.String())
	}
	if *traceOut != "" {
		fmt.Fprintf(os.Stderr, "optsched: wrote event trace %s\n", *traceOut)
	}
	if sol.Compacted == nil {
		fail(fmt.Errorf("no ILP schedule found"))
	}
	ilpVal := m.Eval(sol.Compacted)

	t := table.New("schedule", *metricStr, "quality", "loss[%]")
	for _, pr := range pols {
		q := metrics.Quality(m, ilpVal, pr.value)
		t.Row(pr.name, fmt.Sprintf("%.4f", pr.value),
			fmt.Sprintf("%.4f", q), fmt.Sprintf("%+.2f", metrics.LossPercent(q)))
	}
	t.Separator()
	t.Row("ILP (compacted)", fmt.Sprintf("%.4f", ilpVal), "1.0000", "+0.00")
	fmt.Print(t.String())
	fmt.Printf("best policy: %s; the ILP schedule %s\n", bestName,
		map[bool]string{true: "wins", false: "loses (time-scaling artifact)"}[metrics.Better(m, ilpVal, bestVal) || ilpVal == bestVal])

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
		f.Close()
	}
}

// printProgress is the -verbose solve-progress line.
func printProgress(p mip.Progress) {
	inc := "-"
	if p.HasIncumbent {
		inc = fmt.Sprintf("%.6g", p.Incumbent)
	}
	fmt.Fprintf(os.Stderr, "[%8.2fs] nodes=%d open=%d lp_iters=%d bound=%.6g incumbent=%s\n",
		p.Elapsed.Seconds(), p.Nodes, p.Open, p.LPIters, p.BestBound, inc)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "optsched:", err)
	os.Exit(1)
}
