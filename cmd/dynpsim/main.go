// Command dynpsim runs the planning-based discrete event simulation with
// the self-tuning dynP scheduler over an SWF trace file or a freshly
// synthesized CTC-like workload, and reports the actual (post-execution)
// performance metrics plus the self-tuning statistics.
//
// Usage:
//
//	dynpsim -swf ctc.swf -metric SLDwA -decider advanced
//	dynpsim -swf damaged.swf -lenient
//	dynpsim -synthetic 2000 -seed 3 -policies FCFS,SJF,LJF
//	dynpsim -synthetic 2000 -trace run.jsonl -verbose
//	dynpsim -synthetic 500 -ilp -solve-budget 5s -solve-retries 2 -fallback
//	dynpsim -synthetic 2000 -cpuprofile cpu.pprof -pprof localhost:6060
//
// With -ilp every self-tuning step is solved through the fault-tolerant
// retry ladder (internal/solvepipe) and the compacted optimal schedule
// drives the machine; -solve-budget, -solve-retries, -max-model-vars and
// -fallback bound that pipeline. Each step's model is reduced by the
// presolve pass (-presolve, on by default), steps whose relative
// instance repeats are answered from the cross-step solution cache
// (-step-cache, on by default), and the previous step's schedule seeds
// the branch and bound as an incumbent. -lenient tolerates corrupt SWF
// records.
//
// Observability: -trace writes one JSON object per simulator event
// (sim.submit, sim.start, sim.end, sim.replan, sim.selftune spans,
// dynp.decision with per-policy scores, dynp.switch); -verbose prints a
// per-step line on stderr; -cpuprofile/-memprofile write pprof profiles
// and -pprof serves net/http/pprof while the simulation runs. None of
// these influence the simulated schedule.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/dynp"
	"repro/internal/ilpsched"
	"repro/internal/metrics"
	"repro/internal/mip"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/solvepipe"
)

func main() {
	var (
		swfPath    = flag.String("swf", "", "SWF trace file (overrides -synthetic)")
		synthetic  = flag.Int("synthetic", 1000, "synthesize this many CTC-like jobs when no trace is given")
		seed       = flag.Uint64("seed", 1, "seed for synthetic workloads")
		machineSz  = flag.Int("machine", 0, "override machine size (0 = from trace)")
		metricName = flag.String("metric", "SLDwA", "self-tuning metric: ART, ARTwW, AWT, SLD, SLDwA, UTIL, CMAX")
		deciderStr = flag.String("decider", "advanced", "decider: simple or advanced")
		policiesCS = flag.String("policies", "FCFS,SJF,LJF", "comma-separated policy list")
		noReplan   = flag.Bool("no-replan", false, "do not replan when jobs finish early")
		lenient    = flag.Bool("lenient", false, "tolerate corrupt SWF records (count and skip them)")
		ilpDriven  = flag.Bool("ilp", false, "adopt ILP schedules via the fault-tolerant solve pipeline")
		workers    = flag.Int("workers", 0, "MIP worker pool size for -ilp solves (0 = 1, deterministic)")
		budget     = flag.Duration("solve-budget", 10*time.Second, "per-attempt solve budget of the retry ladder (with -ilp)")
		retries    = flag.Int("solve-retries", 2, "extra retry-ladder attempts under a coarser grid (with -ilp)")
		maxVars    = flag.Int("max-model-vars", 0, "refuse to build ILP models above this many variables (0 = unguarded; with -presolve the guard sees the reduced size)")
		fallback   = flag.Bool("fallback", true, "degrade a failed solve to the basic-policy schedule instead of aborting (with -ilp)")
		presolve   = flag.Bool("presolve", true, "reduce each step's ILP with the presolve pass before solving (with -ilp)")
		stepCache  = flag.Bool("step-cache", true, "answer steps whose relative instance repeats from the cross-step solution cache (with -ilp)")
		traceOut   = flag.String("trace", "", "write a structured JSONL event trace to this file")
		verbose    = flag.Bool("verbose", false, "print per-step progress lines and counters on stderr")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address while running")
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
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "dynpsim: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "dynpsim: pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}

	tr, err := cliutil.LoadTrace("dynpsim", *swfPath, *synthetic, *seed, *lenient)
	if err != nil {
		fail(err)
	}
	m, err := metrics.ByName(*metricName)
	if err != nil {
		fail(err)
	}
	var pols []policy.Policy
	var polNames []string
	for _, name := range strings.Split(*policiesCS, ",") {
		p, err := policy.ByName(strings.TrimSpace(name))
		if err != nil {
			fail(err)
		}
		pols = append(pols, p)
		polNames = append(polNames, p.Name())
	}
	var dec dynp.Decider
	switch *deciderStr {
	case "simple":
		dec = dynp.SimpleDecider{}
	case "advanced":
		dec = dynp.AdvancedDecider{}
	default:
		fail(fmt.Errorf("unknown decider %q", *deciderStr))
	}
	sched, err := dynp.New(pols, m, dec)
	if err != nil {
		fail(err)
	}

	tracer, flush, err := cliutil.OpenTracer("dynpsim", *traceOut)
	if err != nil {
		fail(err)
	}
	cliutil.ExitOnSignal(flush)
	reg := obs.NewRegistry()

	cfg := sim.Config{
		Machine:            *machineSz,
		ReplanOnCompletion: !*noReplan,
		Trace:              tracer,
		Metrics:            reg,
	}
	if *ilpDriven {
		cfg.ILP = &sim.ILPConfig{
			StepConfig: solvepipe.StepConfig{
				Pipe: solvepipe.Config{
					Budget:      *budget,
					Retries:     *retries,
					Limit:       ilpsched.SizeLimit{MaxVariables: *maxVars},
					MIP:         mip.Options{MaxNodes: 200000, Workers: *workers},
					PresolveOff: !*presolve,
				},
				StepCacheOff: !*stepCache,
			},
			Fallback: *fallback,
		}
	}
	if *verbose {
		cfg.OnStep = func(sc *sim.StepContext) {
			status := ""
			if sc.Result.Switched {
				status = " (switched)"
			}
			fmt.Fprintf(os.Stderr, "[t=%d] step: queue=%d chosen=%s value=%.4f%s\n",
				sc.Now, len(sc.Waiting), sc.Result.Chosen.Name(), sc.Result.Best().Value, status)
		}
	}
	s, err := sim.New(tr, sched, cfg)
	if err != nil {
		fail(err)
	}
	res, err := s.Run()
	flush()
	if err != nil {
		fail(err)
	}

	procs := *machineSz
	if procs == 0 {
		procs = tr.Processors
	}
	fmt.Print(res.Report(procs, polNames).String())
	if *verbose {
		fmt.Fprint(os.Stderr, reg.String())
	}
	if *traceOut != "" {
		fmt.Fprintf(os.Stderr, "dynpsim: wrote event trace %s\n", *traceOut)
	}

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

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dynpsim:", err)
	os.Exit(1)
}
