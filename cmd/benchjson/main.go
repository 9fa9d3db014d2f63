// Command benchjson runs the repo's solver and serving benchmarks
// in-process and writes a machine-readable trajectory file: the E3
// self-tuning-step and E5 blow-up workloads, the ParallelBnB and
// WarmStart micro-benchmarks, the presolve on/off solves of sampled
// E1-style CTC steps (with the aggregate model-size reduction), the
// end-to-end ILP-driven simulation with cross-step reuse off and on,
// and the schedd serving benchmark: an accelerated CTC replay through
// the full HTTP service with submission batching off and on, measuring
// submit-to-plan latency percentiles and replans per second, plus the
// sharded comparison: the same replay served by one core and by the
// -sharded-shards fabric at planning-bound acceleration, reporting the
// end-to-end throughput multiple and the plan-p99 ratio. The
// benchmark bodies live in internal/benchkit and are the same ones
// `go test -bench` runs, so the JSON numbers and the -bench numbers are
// directly comparable.
//
// The output path defaults to the next free BENCH_N.json in the
// current directory, so successive runs never overwrite an earlier
// trajectory; pin it with -out.
//
// Usage:
//
//	benchjson [-out BENCH_5.json] [-quick] [-serving-jobs 10000]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/benchkit"
	"repro/internal/loadgen"
)

type benchResult struct {
	Name       string  `json:"name"`
	Iterations int     `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	AllocsOp   int64   `json:"allocs_per_op"`
	BytesOp    int64   `json:"bytes_per_op"`
	// SpeedupVsWorkers1 is wall-clock ns/op of the 1-worker run divided
	// by this run's; only set on the ParallelBnB variants.
	SpeedupVsWorkers1 float64 `json:"speedup_vs_workers1,omitempty"`
	// SpeedupVsBaseline is ns/op of the feature-off run divided by this
	// run's; set on the presolve=on and reuse=on variants.
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
}

// environment pins the measurement host so trajectories taken on
// different machines are never compared as if they were one series. The
// parallel_bnb_speedup map records the observed branch-and-bound scaling
// per worker count; multi_core says whether the host could exhibit any.
type environment struct {
	GoVersion          string             `json:"go_version"`
	GoMaxProcs         int                `json:"gomaxprocs"`
	NumCPU             int                `json:"num_cpu"`
	MultiCore          bool               `json:"multi_core"`
	ParallelBnBSpeedup map[string]float64 `json:"parallel_bnb_speedup,omitempty"`
}

type trajectory struct {
	Generated   string      `json:"generated"`
	GoVersion   string      `json:"go_version"`
	GoMaxProcs  int         `json:"gomaxprocs"`
	NumCPU      int         `json:"num_cpu"`
	Environment environment `json:"environment"`
	// Note records measurement caveats (e.g. single-CPU hosts cannot
	// exhibit parallel speedup no matter the worker count).
	Note       string        `json:"note,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
	WarmStart  warmStats     `json:"warmstart_solve"`
	// Presolve is the aggregate model-size reduction over the sampled
	// E1-style CTC steps.
	Presolve *presolveStats `json:"presolve_reduction,omitempty"`
	// Reuse is the cross-step reuse provenance of one instrumented
	// ILP-driven CTC simulation.
	Reuse *reuseStats `json:"cross_step_reuse,omitempty"`
	// Serving is the schedd end-to-end serving benchmark.
	Serving *servingStats `json:"serving,omitempty"`
	// ServingSharded compares single-core serving against the sharded
	// fabric on the same replay.
	ServingSharded *shardedStats `json:"serving_sharded,omitempty"`
	// ServingAnytime compares deadline-SLO serving by the interval-solve
	// baseline against the anytime optimizer with digital-twin admission
	// at equal per-solve budget.
	ServingAnytime *anytimeStats `json:"serving_anytime,omitempty"`
}

// servingRun is one serving leg: the loadgen measurement plus the
// batching mode (and shard count, for fabric legs) that produced it.
type servingRun struct {
	Batching bool `json:"batching"`
	Shards   int  `json:"shards,omitempty"`
	*loadgen.Result
}

// shardedStats compares the same high-acceleration CTC replay served by
// one core against the sharded fabric under identical GOMAXPROCS: the
// fabric's replan loops run concurrently, so end-to-end throughput
// (submission to planned) should scale with the shard count until the
// host runs out of cores. ThroughputX is sharded end_to_end_rps over
// single-core; PlanP99Ratio is sharded plan p99 over single-core (below
// 1.0 means the tail improved too).
type shardedStats struct {
	Jobs         int         `json:"jobs"`
	Machine      int         `json:"machine"`
	Shards       int         `json:"shards"`
	WideLane     int         `json:"wide_lane"`
	Accel        float64     `json:"accel"`
	SingleCore   *servingRun `json:"single_core"`
	Sharded      *servingRun `json:"sharded"`
	ThroughputX  float64     `json:"throughput_x"`
	PlanP99Ratio float64     `json:"plan_p99_ratio"`
}

// anytimeStats compares SLO-deadline serving of the same oversaturated
// CTC replay (LoadFactor x the paper's arrival rate, so a persistent
// backlog exists for deadlines to bite on) under two ways of spending
// the same per-solve budget: the baseline burns it in one interval
// solve per replan interval and admits every job (the pre-twin serving
// path — misses latch against the requested deadlines but nothing is
// rejected up front), while the anytime leg starves the interval solver
// and streams budget-bounded background sessions instead, with the
// digital twin 429ing jobs whose predicted start would bust their
// deadline. Both legs run FCFS-only dynP with the daemon's default
// self-clocked batching (MaxBatch 64). AdoptedPerInterval is anytime
// incumbents adopted per interval step — above 1 means the plan now
// improves more than once per replan interval, the gap named in the
// paper's finding that the one-solve-per-interval path leaves quality
// on the table. Miss rates are latched SLO misses over admitted jobs.
// BENCH_10.json's AdoptedPerInterval was measured under a rate-sized
// coalescing window of up to 2 s, which made interval steps few and
// large; self-clocked batching steps far more often, so that
// denominator is not comparable with runs of this version.
type anytimeStats struct {
	Jobs      int     `json:"jobs"`
	Machine   int     `json:"machine"`
	Accel     float64 `json:"accel"`
	Load      float64 `json:"load_factor"`
	DeadlineS int64   `json:"deadline_s"`
	MarginS   int64   `json:"slo_margin_s"`
	// BudgetMs is the per-solve budget both legs spend: the baseline per
	// interval solve, the anytime leg per background session.
	BudgetMs           float64     `json:"budget_ms"`
	Baseline           *servingRun `json:"interval_baseline"`
	Anytime            *servingRun `json:"anytime"`
	AdoptedPerInterval float64     `json:"adopted_per_interval"`
	BaselineMissRate   float64     `json:"baseline_miss_rate"`
	AnytimeMissRate    float64     `json:"anytime_miss_rate"`
}

// servingStats compares accelerated CTC replay through the full HTTP
// service with submission batching off (one replan per submission) and
// on (up to 64 submissions coalesced per replan).
type servingStats struct {
	Jobs    int         `json:"jobs"`
	Machine int         `json:"machine"`
	Accel   float64     `json:"accel"`
	Off     *servingRun `json:"batching_off"`
	On      *servingRun `json:"batching_on"`
	// ReplanReductionPct is how many of the batching-off replans the
	// coalescing eliminated.
	ReplanReductionPct float64 `json:"replan_reduction_pct"`
	// WAL is the durable leg: batching on plus a write-ahead log, so
	// every 202 pays a group-committed fsync before it is sent.
	WAL *servingRun `json:"wal_on,omitempty"`
	// WALSubmitP99Ratio is the durable leg's submit p99 divided by the
	// memory-only batching-on leg's — the price of durability on the
	// tail, which group commit is meant to keep within ~2x.
	WALSubmitP99Ratio float64 `json:"wal_submit_p99_ratio,omitempty"`
}

type presolveStats struct {
	Steps             int     `json:"sampled_steps"`
	VarsBefore        int     `json:"vars_before"`
	VarsAfter         int     `json:"vars_after"`
	VarsRemovedPct    float64 `json:"vars_removed_pct"`
	EntriesBefore     int     `json:"entries_before"`
	EntriesAfter      int     `json:"entries_after"`
	EntriesRemovedPct float64 `json:"entries_removed_pct"`
	RowsBefore        int     `json:"rows_before"`
	RowsAfter         int     `json:"rows_after"`
}

type reuseStats struct {
	ILPSteps        int `json:"ilp_steps"`
	CacheHits       int `json:"cache_hits"`
	IncumbentReuses int `json:"incumbent_reuses"`
	Fallbacks       int `json:"fallbacks"`
}

// warmStats is the basis telemetry of one instrumented warm-start solve.
// The default sparse-LU run reports ft_updates/lu_fill/refactor_triggers;
// eta_updates counts the product-form updates of the dense fallback and
// stays zero in sparse mode.
type warmStats struct {
	WarmStartHits    int `json:"warmstart_hits"`
	LPSolves         int `json:"lp_solves"`
	EtaUpdates       int `json:"eta_updates"`
	FTUpdates        int `json:"ft_updates"`
	LUFill           int `json:"lu_fill"`
	RefactorTriggers int `json:"refactor_triggers"`
}

func run(name string, body func(b *testing.B)) benchResult {
	fmt.Fprintf(os.Stderr, "benchjson: running %s...\n", name)
	r := testing.Benchmark(body)
	return benchResult{
		Name:       name,
		Iterations: r.N,
		NsPerOp:    float64(r.NsPerOp()),
		AllocsOp:   r.AllocsPerOp(),
		BytesOp:    r.AllocedBytesPerOp(),
	}
}

// nextBenchPath returns BENCH_N.json for N one above the highest
// already present, so successive runs extend the trajectory sequence
// instead of filling old gaps or overwriting anything.
func nextBenchPath() string {
	matches, _ := filepath.Glob("BENCH_*.json")
	max := 0
	for _, m := range matches {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(m), "BENCH_%d.json", &n); err == nil && n > max {
			max = n
		}
	}
	return fmt.Sprintf("BENCH_%d.json", max+1)
}

func main() {
	out := flag.String("out", "", "output path for the benchmark trajectory JSON (default: next free BENCH_N.json)")
	quick := flag.Bool("quick", false, "skip the E3 self-tuning-step benchmarks and shrink the serving replay")
	servingJobs := flag.Int("serving-jobs", 10000, "submissions replayed per serving leg (0 disables the serving benchmark)")
	servingAccel := flag.Float64("serving-accel", 100000, "trace-time compression of the serving replay")
	shardCount := flag.Int("sharded-shards", 4, "shard count of the sharded serving comparison (0 disables it)")
	shardJobs := flag.Int("sharded-jobs", 10000, "submissions replayed per sharded comparison leg (0 disables it)")
	shardAccel := flag.Float64("sharded-accel", 2000000, "trace-time compression of the sharded comparison (high, so planning is the bottleneck)")
	anyJobs := flag.Int("anytime-jobs", 400, "submissions replayed per anytime SLO comparison leg (0 disables it)")
	anyAccel := flag.Float64("anytime-accel", 2500, "trace-time compression of the anytime comparison (low: the optimizer needs wall time between virtual events)")
	flag.StringVar(out, "o", "", "alias for -out")
	flag.Parse()
	if *out == "" {
		*out = nextBenchPath()
	}

	var results []benchResult
	if !*quick {
		results = append(results,
			run("SelfTuningStep25Jobs", benchkit.BenchSelfTuningStep(false)),
			run("SelfTuningStep25Jobs/parallel", benchkit.BenchSelfTuningStep(true)),
		)
	}

	off := run("PresolveStepSolve/presolve=off", benchkit.BenchPresolveStepSolve(false))
	on := run("PresolveStepSolve/presolve=on", benchkit.BenchPresolveStepSolve(true))
	if off.NsPerOp > 0 {
		on.SpeedupVsBaseline = off.NsPerOp / on.NsPerOp
	}
	results = append(results, off, on)

	reuseOff := run("SimCrossStepReuse/reuse=off", benchkit.BenchSimCrossStepReuse(false))
	reuseOn := run("SimCrossStepReuse/reuse=on", benchkit.BenchSimCrossStepReuse(true))
	if reuseOff.NsPerOp > 0 {
		reuseOn.SpeedupVsBaseline = reuseOff.NsPerOp / reuseOn.NsPerOp
	}
	results = append(results, reuseOff, reuseOn)

	workerCounts := []int{1, 2, 4}
	var base float64
	bnbSpeedup := make(map[string]float64, len(workerCounts))
	for _, w := range workerCounts {
		br := run(fmt.Sprintf("ParallelBnB/workers=%d", w), benchkit.BenchParallelBnB(w))
		if w == 1 {
			base = br.NsPerOp
		}
		if base > 0 {
			br.SpeedupVsWorkers1 = base / br.NsPerOp
		}
		bnbSpeedup[fmt.Sprintf("workers=%d", w)] = br.SpeedupVsWorkers1
		results = append(results, br)
	}

	// The two basis representations on the identical warm-start workload:
	// the sparse leg's speedup_vs_baseline is dense ns/op over sparse.
	warmDense := run("WarmStart/basis=dense", benchkit.BenchWarmStart(true))
	warmSparse := run("WarmStart/basis=sparse", benchkit.BenchWarmStart(false))
	if warmDense.NsPerOp > 0 {
		warmSparse.SpeedupVsBaseline = warmDense.NsPerOp / warmSparse.NsPerOp
	}
	results = append(results, warmDense, warmSparse)

	// Observability overhead on the serving hot path: the disabled leg is
	// the permanent cost of shipping the service instrumented and must
	// stay allocation-free.
	obsDisabled := run("ObsServingPath/obs=disabled", benchkit.BenchObsServingPath("disabled"))
	obsLabeled := run("ObsServingPath/obs=labeled", benchkit.BenchObsServingPath("labeled"))
	obsTracing := run("ObsServingPath/obs=tracing", benchkit.BenchObsServingPath("tracing"))
	if obsDisabled.NsPerOp > 0 {
		obsLabeled.SpeedupVsBaseline = obsDisabled.NsPerOp / obsLabeled.NsPerOp
		obsTracing.SpeedupVsBaseline = obsDisabled.NsPerOp / obsTracing.NsPerOp
	}
	results = append(results, obsDisabled, obsLabeled, obsTracing)

	// Durable-append cost: fsync_every=1 is the one-fsync-per-record
	// baseline, fsync_every=64 shows the group-commit amortization under
	// the same concurrent load.
	walOne := run("WALAppendSync/fsync_every=1", benchkit.BenchWALAppendSync(1))
	walGrp := run("WALAppendSync/fsync_every=64", benchkit.BenchWALAppendSync(64))
	if walOne.NsPerOp > 0 {
		walGrp.SpeedupVsBaseline = walOne.NsPerOp / walGrp.NsPerOp
	}
	results = append(results, walOne, walGrp, run("WALAppendAsync", benchkit.BenchWALAppendAsync()))

	ws, err := benchkit.WarmStartStats(false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: warm-start stats: %v\n", err)
		os.Exit(1)
	}

	red, err := benchkit.PresolveReductionStats()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: presolve reduction: %v\n", err)
		os.Exit(1)
	}
	ilpSteps, hits, reuses, fallbacks, err := benchkit.CrossStepReuseStats()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reuse stats: %v\n", err)
		os.Exit(1)
	}

	var serving *servingStats
	if *servingJobs > 0 {
		jobs := *servingJobs
		if *quick && jobs > 1000 {
			jobs = 1000
		}
		leg := func(batching, durable bool) *servingRun {
			mode := "off"
			if batching {
				mode = "on"
			}
			if durable {
				mode += "+wal"
			}
			fmt.Fprintf(os.Stderr, "benchjson: serving replay (%d jobs, batching %s)...\n", jobs, mode)
			res, _, err := benchkit.ServingBench(benchkit.ServingConfig{
				Jobs: jobs, Accel: *servingAccel, Batching: batching, WAL: durable,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: serving: %v\n", err)
				os.Exit(1)
			}
			return &servingRun{Batching: batching, Result: res}
		}
		off, on, durable := leg(false, false), leg(true, false), leg(true, true)
		serving = &servingStats{Jobs: jobs, Machine: 430, Accel: *servingAccel, Off: off, On: on, WAL: durable}
		if offTotal := off.Steps + off.Replans; offTotal > 0 {
			serving.ReplanReductionPct = 100 * (1 - float64(on.Steps+on.Replans)/float64(offTotal))
		}
		if on.SubmitLatency.P99 > 0 {
			serving.WALSubmitP99Ratio = durable.SubmitLatency.P99 / on.SubmitLatency.P99
		}
	}

	var sharded *shardedStats
	if *shardJobs > 0 && *shardCount > 1 {
		jobs := *shardJobs
		// The quick floor stays at 4000: below that the single core is
		// not planning-bound and the comparison degenerates to ~1.0x.
		if *quick && jobs > 4000 {
			jobs = 4000
		}
		leg := func(shards int) *servingRun {
			label := "single core"
			if shards > 1 {
				label = fmt.Sprintf("%d shards", shards)
			}
			fmt.Fprintf(os.Stderr, "benchjson: sharded serving replay (%d jobs, %s)...\n", jobs, label)
			res, _, err := benchkit.ServingBench(benchkit.ServingConfig{
				Jobs: jobs, Accel: *shardAccel, Batching: true,
				Shards: shards, WideLane: 256,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: sharded serving: %v\n", err)
				os.Exit(1)
			}
			return &servingRun{Batching: true, Shards: shards, Result: res}
		}
		single, fabric := leg(1), leg(*shardCount)
		sharded = &shardedStats{
			Jobs: jobs, Machine: 430, Shards: *shardCount, WideLane: 256,
			Accel: *shardAccel, SingleCore: single, Sharded: fabric,
		}
		if single.EndToEndRPS > 0 {
			sharded.ThroughputX = fabric.EndToEndRPS / single.EndToEndRPS
		}
		if single.PlanLatency.P99 > 0 {
			sharded.PlanP99Ratio = fabric.PlanLatency.P99 / single.PlanLatency.P99
		}
	}

	var anytime *anytimeStats
	if *anyJobs > 0 {
		const (
			anyLoad     = 1.25
			anyDeadline = 28800 // 8 h start SLO on an oversaturated queue
			anyMargin   = 2500
			anyBudget   = 250 * time.Millisecond
		)
		leg := func(label string, c benchkit.ServingConfig) *servingRun {
			fmt.Fprintf(os.Stderr, "benchjson: anytime SLO replay (%d jobs, %s)...\n", *anyJobs, label)
			c.Jobs, c.Accel = *anyJobs, *anyAccel
			c.Batching, c.FCFSOnly = true, true
			c.LoadFactor, c.DeadlineS = anyLoad, anyDeadline
			res, _, err := benchkit.ServingBench(c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: anytime serving: %v\n", err)
				os.Exit(1)
			}
			return &servingRun{Result: res}
		}
		// Equal per-solve budget: the baseline spends it in one interval
		// solve per step with every deadline-bearing job admitted; the
		// anytime leg starves the interval solver (50 us, instant policy
		// fallback) and hands the budget to background sessions, with the
		// twin gating admission against predicted starts plus margin.
		base := leg("interval baseline", benchkit.ServingConfig{
			TwinGateOff: true, Budget: anyBudget,
		})
		anyRun := leg("anytime+twin", benchkit.ServingConfig{
			SLOMargin: anyMargin, Budget: 50 * time.Microsecond,
			Anytime: true, AnytimeBudget: anyBudget,
		})
		anytime = &anytimeStats{
			Jobs: *anyJobs, Machine: 430, Accel: *anyAccel,
			Load: anyLoad, DeadlineS: anyDeadline, MarginS: anyMargin,
			BudgetMs: float64(anyBudget) / float64(time.Millisecond),
			Baseline: base, Anytime: anyRun,
		}
		if anyRun.Steps > 0 {
			anytime.AdoptedPerInterval = float64(anyRun.AnytimeAdopted) / float64(anyRun.Steps)
		}
		if base.NewlyAccepted > 0 {
			anytime.BaselineMissRate = float64(base.SLOMisses) / float64(base.NewlyAccepted)
		}
		if anyRun.NewlyAccepted > 0 {
			anytime.AnytimeMissRate = float64(anyRun.SLOMisses) / float64(anyRun.NewlyAccepted)
		}
	}

	traj := trajectory{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Environment: environment{
			GoVersion:          runtime.Version(),
			GoMaxProcs:         runtime.GOMAXPROCS(0),
			NumCPU:             runtime.NumCPU(),
			MultiCore:          runtime.GOMAXPROCS(0) > 1 && runtime.NumCPU() > 1,
			ParallelBnBSpeedup: bnbSpeedup,
		},
		Benchmarks: results,
		WarmStart: warmStats{
			WarmStartHits:    ws.WarmStartHits,
			LPSolves:         ws.LPSolves,
			EtaUpdates:       ws.EtaUpdates,
			FTUpdates:        ws.FTUpdates,
			LUFill:           ws.LUFill,
			RefactorTriggers: ws.RefactorTriggers,
		},
		Presolve: &presolveStats{
			Steps:             red.Steps,
			VarsBefore:        red.VarsBefore,
			VarsAfter:         red.VarsAfter,
			VarsRemovedPct:    red.VarsRemovedPct(),
			EntriesBefore:     red.EntriesBefore,
			EntriesAfter:      red.EntriesAfter,
			EntriesRemovedPct: red.EntriesRemovedPct(),
			RowsBefore:        red.RowsBefore,
			RowsAfter:         red.RowsAfter,
		},
		Reuse: &reuseStats{
			ILPSteps: ilpSteps, CacheHits: hits,
			IncumbentReuses: reuses, Fallbacks: fallbacks,
		},
		Serving:        serving,
		ServingSharded: sharded,
		ServingAnytime: anytime,
	}
	if traj.GoMaxProcs == 1 {
		traj.Note = "GOMAXPROCS=1: the branch-and-bound worker pool cannot run nodes " +
			"concurrently on this host, so ParallelBnB speedup_vs_workers1 stays ~1.0 " +
			"by construction; rerun on a multi-core host to observe scaling."
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&traj); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks)\n", *out, len(results))
}
