// Command bench is the repository's benchmark: four fixed-work workloads
// (the paper's simulation, the ILP step engine, durable serving and
// sharded serving), each measured end to end with tracing off and, in a
// separate traced run, layer by layer. See README.md for the workloads,
// the metric dictionary and how to calibrate.
//
// Usage:
//
//	bench -workload sim_ctc -seed 1 -seconds 12 -trace 0
//	bench -workload ilp_steps -seed 1 -seconds 12 -trace 1
//	bench -workload all -seed 1 -seconds 12 -repeat 10   # calibration table
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"op_p50_ms":{"value":…,"unit":"ms"},…}}
//
// With -trace 0 the metrics are the end-to-end ones, with -trace 1 the
// per-layer ones. Diagnostics and the environment fingerprint go to
// standard error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every workload reports with -trace 0. Each is
// defined for all four workloads (README.md, "Metric dictionary").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
}

// perLayer are the metrics every workload reports with -trace 1. Layer
// times are shares of the workload's measured time (unit frac), so a
// layer a workload does not run reports 0 rather than a time; absolute
// values follow from the end-to-end metrics.
var perLayer = []metricDef{
	{"trace.overhead_frac", "frac"},
	{"trace.layer_sum_frac", "frac"},
	{"proc.peak_rss_mb", "MB"},

	{"sim.replans", "count"},
	{"sim.switches", "count"},
	{"sim.queue_mean", "jobs"},
	{"sim.self_frac", "frac"},
	{"dynp.self_frac", "frac"},
	{"policy.build_frac", "frac"},
	{"metrics.eval_frac", "frac"},

	{"mip.optimal_frac", "frac"},
	{"ilpsched.vars_before", "count"},
	{"ilpsched.vars_after", "count"},
	{"mip.nodes", "count"},
	{"mip.lp_iters", "count"},
	{"mip.lp_solves", "count"},
	{"mip.pruned", "count"},
	{"lp.warmstart_hits", "count"},
	{"lp.ft_updates", "count"},
	{"lp.refactorizations", "count"},
	{"ilpsched.build_frac", "frac"},
	{"lp.root_frac", "frac"},
	{"mip.bnb_frac", "frac"},
	{"schedule.validate_frac", "frac"},
	{"solvepipe.self_frac", "frac"},
	{"solvepipe.retries", "count"},

	{"loadgen.late_frac", "frac"},
	{"http.submit_frac", "frac"},
	{"wal.append_frac", "frac"},
	{"schedd.wait_frac", "frac"},
	{"schedd.step_frac", "frac"},
	{"schedd.busy_frac", "frac"},
	{"schedd.step_busy_frac", "frac"},
	{"schedd.completion_busy_frac", "frac"},
	{"schedd.batches", "count"},
	{"schedd.steps", "count"},
	{"schedd.replans", "count"},
	{"schedd.batch_size_mean", "jobs"},
	{"wal.appends", "count"},
	{"wal.fsyncs", "count"},
	{"wal.fsync_batch_mean", "records"},
	{"wal.fsync_busy_frac", "frac"},
	{"wal.replay_records", "count"},
	{"wal.recover_vs_setup", "ratio"},
	{"shard.routed_wide", "count"},
	{"shard.routed_narrow", "count"},
}

// metricJSON is one metric of the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the result line.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	// size scales every workload's input (1 is the benchmark; the smoke
	// test shrinks it).
	size float64
	// setups is how many times the run sets up; setup_s is the median.
	// 0 means the workload's own count.
	setups  int
	schedd  string
	workdir string
	// tr is the span recorder of the traced pass (nil when untraced).
	tr *tracer
}

// scaled returns n scaled by the config's size, at least lo.
func (c *config) scaled(n, lo int) int {
	return max(lo, int(math.Round(float64(n)*c.size)))
}

// outcome is what a workload pass measured.
type outcome struct {
	attempted, failed int
	// problems are failed correctness checks; any makes correct false.
	problems []string
	e2e      map[string]float64
	layer    map[string]float64
	// opMs are the per-operation latencies behind op_p50_ms, compared
	// between the untraced and the traced pass for the tracing overhead.
	opMs []float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloadFunc runs one pass of a workload.
type workloadFunc func(ctx context.Context, cfg *config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"sim_ctc":       runSimCTC,
	"ilp_steps":     runILPSteps,
	"serve_wal":     runServeWAL,
	"serve_sharded": runServeSharded,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+" (with -repeat also a comma list or all)")
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 12, "how long the run measures")
		traceOn = flag.Int("trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
		repeat  = flag.Int("repeat", 0, "calibration: run each workload this many times in each of two interleaved sets (seeds seed, seed+1, …) and print median and IQR per metric")
		scheddB = flag.String("schedd", ".bench_build/schedd", "schedd binary built from the same checkout")
		workdir = flag.String("workdir", ".bench_build", "directory for temporary WAL directories and the traced run's spans (trace-<workload>-<seed>.jsonl)")
	)
	flag.Parse()
	if *traceOn != 0 && *traceOn != 1 {
		fatal(errors.New("-trace must be 0 or 1"))
	}
	if *seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}
	if *repeat > 0 {
		extra := []string{"-schedd", *scheddB, "-workdir", *workdir}
		if err := calibrate(*name, *seed, *seconds, *traceOn == 1, *repeat, extra); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	// One OS thread runs Go code: the garbage collector then works inline
	// instead of on the second core, which makes timings steadier on a
	// small shared host, and the daemon under test keeps a core of its own.
	runtime.GOMAXPROCS(1)
	printFingerprint()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := &config{workload: *name, seed: *seed, seconds: *seconds, size: 1,
		schedd: *scheddB, workdir: *workdir}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fatal(err)
	}
	res, err := measure(ctx, run, cfg, *traceOn == 1)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// measure runs the workload untraced and, for a traced run, a second
// time with spans recorded, and assembles the result line.
func measure(ctx context.Context, run workloadFunc, cfg *config, traced bool) (*resultJSON, error) {
	defs := endToEnd
	base := *cfg
	if traced {
		defs = perLayer
		// Both passes share the run's measuring time; set-up time is not
		// reported, so one set-up per pass suffices.
		base.seconds = cfg.seconds / 2
		base.setups = 1
	}
	plain, err := run(ctx, &base)
	if err != nil {
		return nil, err
	}
	o := plain
	if traced {
		tcfg := base
		tcfg.tr = newTracer()
		o, err = run(ctx, &tcfg)
		if err != nil {
			return nil, err
		}
		o.layer["trace.overhead_frac"] = frac(median(o.opMs), median(plain.opMs)) - 1
		o.attempted += plain.attempted
		o.failed += plain.failed
		o.problems = append(o.problems, plain.problems...)
		traceOut := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := tcfg.tr.write(traceOut); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(tcfg.tr.spans), traceOut)
	}
	values := o.e2e
	if traced {
		values = o.layer
	}
	res := &resultJSON{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v := values[d.name] // a layer the workload does not run reports 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "bench: %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	for name := range values {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("workload reported undeclared metric %q", name)
		}
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "bench: INCORRECT:", p)
	}
	res.Correct = len(o.problems) == 0
	if res.Attempted < 1 {
		return nil, errors.New("workload attempted no operation")
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: attempted %d, failed %d, correct %v\n",
		cfg.workload, cfg.seed, res.Attempted, res.Failed, res.Correct)
	return res, nil
}

// printFingerprint writes the environment the numbers were measured on.
func printFingerprint() {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	// Only ask git inside a git checkout, so it never reads a repository
	// that merely contains this directory.
	commit := "unknown (not a git checkout)"
	if _, err := os.Stat(".git"); err == nil {
		if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(b))
		}
	}
	fmt.Fprintf(os.Stderr, "bench: env go=%s nproc=%d gomaxprocs=%d cpu=%q kernel=%s commit=%s\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, kernel, commit)
}

// peakRSSMB returns the peak resident set (VmHWM) of a process in MB;
// pid 0 is this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// setupCount is how many set-ups the run times: the config's count, or
// the workload's own when the config leaves it 0.
func (c *config) setupCount(own int) int {
	if c.setups > 0 {
		return c.setups
	}
	return own
}

// timeSetups runs setup n times and returns the last result and the
// median duration. Every set-up must produce the same digest: the inputs
// depend on the seed alone.
func timeSetups[T any](cfg *config, o *outcome, n int, setup func() (T, string, error)) (T, float64, error) {
	var (
		last   T
		digest string
		secs   []float64
	)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		in, d, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i > 0 && d != digest {
			o.problem("set-up %d produced input digest %s, set-up 0 produced %s", i, d, digest)
		}
		last, digest = in, d
	}
	fmt.Fprintf(os.Stderr, "bench: %s input digest %s\n", cfg.workload, digest)
	return last, median(secs), nil
}

// maxRounds bounds how often an offline workload repeats its operations
// within one run, which bounds the memory of the per-round timings when
// the operations are few and fast (the smoke test's toy sizes).
const maxRounds = 25

// subSeed derives an independent stream seed from the run seed
// (splitmix64), so different run seeds share no inputs.
func subSeed(seed uint64, stream, i int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(stream)<<40 + uint64(i)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
