// Command schedd is the online scheduling daemon: it serves the
// self-tuning dynP scheduler (and optionally the ILP solve pipeline)
// behind an HTTP/JSON API on a 430-processor CTC-like machine by
// default.
//
// Usage:
//
//	schedd -addr 127.0.0.1:8080
//	schedd -addr 127.0.0.1:0 -accel 1000 -max-batch 64
//	schedd -ilp -solve-budget 2s -solve-retries 1 -trace schedd.jsonl
//	schedd -rate 5 -burst 10 -queue-bound 512
//	schedd -inject-faults 0.2 -inject-seed 7   # fault-injection drill
//	schedd -wal-dir /var/lib/schedd/wal        # durable admissions + crash recovery
//	schedd -shards 4 -shard-wide 256 -rebalance-p99-ms 250   # four writer loops
//
// The daemon is always a shard.Router over -shards per-shard cores, 1
// by default. Each core owns a sub-machine, its own replan loop, its
// own WAL directory -wal-dir/shard-<i> and its own token bucket (-rate
// divides by the shard count to keep its per-source meaning roughly
// global). One shard owns the whole machine; with more, shard 0 is
// sized by -shard-wide so the workload's widest jobs stay servable and
// the rest split evenly. The HTTP API is listed in internal/shard
// (http.go): submit, job lookup, the merged schedule (whose
// per_shard[i].policy is shard i's active policy), health with
// per-shard WAL phases, metrics (JSON and Prometheus), the replan
// flight recorders, the Server-Sent Events stream and per-shard load.
//
// With -pprof the daemon additionally serves the Go profiling handlers
// under /debug/pprof/.
//
// The daemon prints "schedd: listening on http://HOST:PORT" on stderr
// once the socket is bound, so scripts can pass -addr 127.0.0.1:0 and
// scrape the chosen port.
//
// On SIGINT/SIGTERM the daemon drains instead of dying: every replan
// loop finishes its in-flight step and plans every already-admitted
// job (new submissions get 503), the final merged schedule is written
// to -final-schedule if set, the -trace JSONL sink is flushed, and the
// daemon exits 0.
//
// With -wal-dir every admission decision is appended to a hash-chained
// write-ahead log before the 202 commits; on restart each shard replays
// its newest snapshot plus the log tail (announcing "WAL open" with the
// replay size), POST /v1/jobs answers 503 until recovery finishes, and
// the daemon refuses to start on a corrupt log unless -wal-repair
// truncates it back to the last verifiable record. It also refuses a
// -wal-dir whose shard-<i> directories do not match -shards, or that
// holds log files at its top level. If the daemon panics, every shard's
// replan flight recorder is dumped to stderr and the JSONL trace is
// flushed so post-crash forensics (traceinfo -jsonl) see the final
// events.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on the DefaultServeMux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/dynp"
	"repro/internal/faultinject"
	"repro/internal/ilpsched"
	"repro/internal/metrics"
	"repro/internal/mip"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/schedd"
	"repro/internal/shard"
	"repro/internal/solvepipe"
	"repro/internal/wal"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		machineSz  = flag.Int("machine", 430, "machine size in processors")
		metricName = flag.String("metric", "SLDwA", "self-tuning metric: ART, ARTwW, AWT, SLD, SLDwA, UTIL, CMAX")
		deciderStr = flag.String("decider", "advanced", "decider: simple or advanced")
		policiesCS = flag.String("policies", "FCFS,SJF,LJF", "comma-separated policy list")
		accel      = flag.Float64("accel", 1, "virtual seconds per wall second (1 = live time)")
		queueBound = flag.Int("queue-bound", 256, "submit queue bound; a full queue answers 429")
		maxBatch   = flag.Int("max-batch", 64, "max queued submissions coalesced into one replan; batches form while the writer is busy (1 = replan per submission)")
		rate       = flag.Float64("rate", 0, "per-source admission rate in submissions/s (0 = unlimited)")
		burst      = flag.Int("burst", 4, "per-source burst size (with -rate)")
		weightsCS  = flag.String("wfq-weights", "", "comma-separated source=weight pairs scaling one source's -rate and -burst, e.g. batch=1,interactive=4 (with -rate)")
		ilpDriven  = flag.Bool("ilp", false, "drive replans through the fault-tolerant ILP solve pipeline")
		workers    = flag.Int("workers", 0, "parallel solve workers (0 = 1, deterministic; with -ilp)")
		budget     = flag.Duration("solve-budget", 2*time.Second, "per-attempt solve budget of the retry ladder (with -ilp)")
		retries    = flag.Int("solve-retries", 1, "extra retry-ladder attempts under a coarser grid (with -ilp)")
		maxVars    = flag.Int("max-model-vars", 0, "refuse ILP models above this many variables (0 = unguarded; with -ilp)")
		presolve   = flag.Bool("presolve", true, "reduce each step's ILP with the presolve pass (with -ilp)")
		stepCache  = flag.Bool("step-cache", true, "answer repeated relative instances from the step cache (with -ilp)")
		anytimeOn  = flag.Bool("anytime", false, "run the background anytime optimizer: continuous B&B between replans, adopting improved incumbents (with -ilp)")
		anytimeBud = flag.Duration("anytime-budget", 0, "per-session budget of the anytime optimizer (0 = the -solve-budget)")
		sloMargin  = flag.Int64("slo-margin", 0, "safety headroom (virtual seconds) added to the twin's predicted start in deadline admission")
		faultP     = flag.Float64("inject-faults", 0, "inject solve faults with this probability (with -ilp; testing)")
		faultSeed  = flag.Uint64("inject-seed", 1, "fault-injection seed (with -inject-faults)")
		traceOut   = flag.String("trace", "", "write a structured JSONL event trace to this file")
		sampleEvry = flag.Int("trace-sample-every", 1, "trace every Nth replan's span tree (per-job events are always traced)")
		replanBuf  = flag.Int("replan-buffer", 0, "flight-recorder capacity in replan summaries (0 = default 64)")
		slowReplan = flag.Duration("slow-replan", 0, "dump the full span tree of replans slower than this, even when sampled out (0 = off)")
		pprofOn    = flag.Bool("pprof", false, "serve Go profiling handlers under /debug/pprof/")
		finalOut   = flag.String("final-schedule", "", "persist the final merged schedule snapshot as JSON on drain")
		drainTO    = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for the drain to finish")
		walDir     = flag.String("wal-dir", "", "write-ahead log directory; admissions are durable before the 202 (empty = memory only)")
		walFsync   = flag.Int("wal-fsync-every", 64, "max WAL records coalesced into one fsync (group commit; with -wal-dir)")
		snapEvery  = flag.Int("snapshot-every", 1024, "WAL records between state snapshots that bound replay (with -wal-dir)")
		walRepair  = flag.Bool("wal-repair", false, "truncate a corrupt WAL back to the last verifiable record instead of refusing to start")
		shards     = flag.Int("shards", 1, "shard count: the machine partitions across this many independent per-shard cores behind one routing front end")
		shardWide  = flag.Int("shard-wide", 0, "wide-lane size: shard 0 owns this many processors, the rest split evenly (0 = even partition; with -shards > 1)")
		rebalP99   = flag.Float64("rebalance-p99-ms", 0, "migrate queued jobs off a shard whose submit-to-plan p99 diverges from the fastest's by more than this many ms (0 = off; with -shards > 1)")
		rebalEvery = flag.Duration("rebalance-interval", 200*time.Millisecond, "rebalance evaluation period (with -rebalance-p99-ms)")
		rebalWin   = flag.Duration("rebalance-window", 15*time.Second, "sliding window of plan-latency samples behind the rebalance p99 signal (with -rebalance-p99-ms)")
		slowShard  = flag.Duration("slow-shard-solve", 0, "artificially delay shard 0's solves by this much (chaos drills; with -ilp)")
	)
	flag.Parse()

	m, err := metrics.ByName(*metricName)
	if err != nil {
		fail(err)
	}
	var pols []policy.Policy
	for _, name := range strings.Split(*policiesCS, ",") {
		p, err := policy.ByName(strings.TrimSpace(name))
		if err != nil {
			fail(err)
		}
		pols = append(pols, p)
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
	if *anytimeOn && !*ilpDriven {
		fail(fmt.Errorf("-anytime requires -ilp (the anytime optimizer runs the ILP pipeline)"))
	}
	if *faultP > 0 && !*ilpDriven {
		fail(fmt.Errorf("-inject-faults requires -ilp (there is no solve pipeline to fault)"))
	}
	if *walRepair && *walDir == "" {
		fail(fmt.Errorf("-wal-repair requires -wal-dir"))
	}
	if *slowShard > 0 && !*ilpDriven {
		fail(fmt.Errorf("-slow-shard-solve requires -ilp (there is no solve pipeline to slow)"))
	}
	weights, err := parseWeights(*weightsCS)
	if err != nil {
		fail(err)
	}
	var ilpCfg *schedd.ILPConfig
	if *ilpDriven {
		ilpCfg = &schedd.ILPConfig{
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
			Anytime:       *anytimeOn,
			AnytimeBudget: *anytimeBud,
		}
	}

	tracer, flush, err := cliutil.OpenTracer("schedd", *traceOut)
	if err != nil {
		fail(err)
	}

	// The panic path must leave the same forensics a graceful drain
	// does: every shard's flight recorder on stderr and a flushed JSONL
	// trace for traceinfo.
	var router *shard.Router
	panicDump := func(v any) {
		fmt.Fprintf(os.Stderr, "schedd: panic: %v\n", v)
		if router != nil {
			for i := 0; i < router.Shards(); i++ {
				if b, err := json.Marshal(router.Core(i).Replans()); err == nil {
					fmt.Fprintf(os.Stderr, "schedd: shard %d flight recorder: %s\n", i, b)
				}
			}
		}
		flush()
	}

	if *walDir != "" {
		// Before any log opens: a log written at another shard count
		// would reinterpret every global job ID.
		if err := shard.CheckWALLayout(*walDir, *shards); err != nil {
			flush()
			fail(err)
		}
	}

	// Each shard is a full core: its own scheduler instance (dynP
	// tuning state is per-core), wall clock, metrics registry and —
	// with -wal-dir — its own log under shard-<i>. The per-source token
	// bucket divides by the shard count so -rate keeps roughly its
	// global meaning for unkeyed traffic that the router spreads across
	// shards.
	var walLogs []*wal.Log
	factory := func(idx, machine int) (schedd.Config, error) {
		sched, err := dynp.New(pols, m, dec)
		if err != nil {
			return schedd.Config{}, err
		}
		c := schedd.Config{
			Scheduler:     sched,
			Clock:         schedd.NewWallClock(*accel),
			QueueBound:    *queueBound,
			MaxBatch:      *maxBatch,
			RatePerSource: *rate / float64(*shards),
			Burst:         *burst,
			Weights:       weights,
			SLOMargin:     *sloMargin,
			Trace:         tracer,
			Metrics:       obs.NewRegistry(),

			ReplanBuffer:     *replanBuf,
			SlowReplan:       *slowReplan,
			TraceSampleEvery: *sampleEvry,

			SnapshotEvery:     *snapEvery,
			PanicHook:         panicDump,
			PlanLatencyWindow: *rebalWin,
		}
		if ilpCfg != nil {
			ilp := *ilpCfg
			var hook func(solvepipe.SolveFunc) solvepipe.SolveFunc
			if *faultP > 0 {
				inj := faultinject.New(faultinject.NewProbability(*faultSeed+uint64(idx), *faultP))
				hook = inj.Hook
			}
			if idx == 0 && *slowShard > 0 {
				// Chaos drill: a deliberately slow wide-lane shard
				// gives the rebalancer a divergence to act on.
				delay, prev := *slowShard, hook
				hook = func(base solvepipe.SolveFunc) solvepipe.SolveFunc {
					if prev != nil {
						base = prev(base)
					}
					return func(ctx context.Context, mdl *ilpsched.Model, opt mip.Options) (*ilpsched.Solution, error) {
						time.Sleep(delay)
						return base(ctx, mdl, opt)
					}
				}
			}
			ilp.Pipe.Hook = hook
			c.ILP = &ilp
		}
		if *walDir != "" {
			dir := shard.WALDir(*walDir, idx)
			walLog, rec, err := wal.Open(wal.Options{
				Dir:        dir,
				FsyncEvery: *walFsync,
				Repair:     *walRepair,
				Trace:      tracer,
				Metrics:    c.Metrics,
			})
			if err != nil {
				return schedd.Config{}, fmt.Errorf("wal shard %d: %w (pass -wal-repair to truncate back to the last verifiable record)", idx, err)
			}
			walLogs = append(walLogs, walLog)
			c.WAL, c.Recovery = walLog, rec
			fmt.Fprintf(os.Stderr,
				"schedd: WAL open in %s: %d records to replay from seq %d (%d torn bytes truncated, repaired=%d)\n",
				dir, len(rec.Records), rec.SnapshotSeq, rec.TornBytes, rec.Repaired)
		}
		return c, nil
	}

	router, err = shard.New(shard.Config{
		Shards:            *shards,
		Machine:           *machineSz,
		WideLane:          *shardWide,
		Factory:           factory,
		Metrics:           obs.NewRegistry(),
		Trace:             tracer,
		RebalanceP99:      *rebalP99,
		RebalanceInterval: *rebalEvery,
	})
	if err != nil {
		flush()
		fail(err)
	}
	if *faultP > 0 {
		fmt.Fprintf(os.Stderr, "schedd: injecting solve faults with p=%.2f per shard (seed %d)\n", *faultP, *faultSeed)
	}
	if *slowShard > 0 {
		fmt.Fprintf(os.Stderr, "schedd: delaying shard 0 solves by %s\n", *slowShard)
	}
	fmt.Fprintf(os.Stderr, "schedd: %d shards over %d processors (sub-machines %v)\n",
		*shards, *machineSz, router.Machines())
	router.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	var handler http.Handler = shard.NewHandler(router)
	if *pprofOn {
		// The API mux has no /debug routes, so delegating the prefix to
		// net/http/pprof's DefaultServeMux registrations is safe.
		mux := http.NewServeMux()
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		mux.Handle("/", handler)
		handler = mux
		fmt.Fprintln(os.Stderr, "schedd: pprof enabled at /debug/pprof/")
	}
	srv := &http.Server{Handler: handler}
	fmt.Fprintf(os.Stderr, "schedd: listening on http://%s\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		flush()
		fail(err)
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "schedd: %s received, draining %d shards\n", sig, *shards)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	final, err := router.Stop(ctx)
	if err != nil {
		flush()
		fail(fmt.Errorf("drain: %w", err))
	}
	if *finalOut != "" {
		if err := writeFinalSchedule(*finalOut, final, router.ActiveJobs()); err != nil {
			flush()
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "schedd: wrote final schedule %s\n", *finalOut)
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "schedd: http shutdown:", err)
	}
	for i, walLog := range walLogs {
		if err := walLog.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "schedd: wal close shard %d: %v\n", i, err)
		}
	}
	flush()
	c := final.Counts
	fmt.Fprintf(os.Stderr,
		"schedd: drained %d shards at t=%d: %d submitted, %d planned, %d started, %d completed; %d steps (%d degraded), %d replans, %d batches\n",
		*shards, final.Now, c.Submitted, c.Planned, c.Started, c.Completed, c.Steps, c.DegradedSteps, c.Replans, c.Batches)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "schedd:", err)
	os.Exit(1)
}

// parseWeights parses -wfq-weights ("batch=1,interactive=4").
func parseWeights(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("bad -wfq-weights entry %q: want source=weight", pair)
		}
		var w float64
		if _, err := fmt.Sscanf(val, "%g", &w); err != nil || w <= 0 {
			return nil, fmt.Errorf("bad -wfq-weights weight %q for %q: want a positive number", val, name)
		}
		out[name] = w
	}
	return out, nil
}

// writeFinalSchedule persists the drain snapshot: the merged
// machine-wide schedule, each shard's own view, and every unfinished
// job's status, sorted by global ID.
func writeFinalSchedule(path string, s *shard.MergedSnapshot, jobs []schedd.JobStatus) error {
	out := struct {
		*shard.MergedSnapshot
		Jobs []schedd.JobStatus `json:"jobs"`
	}{s, jobs}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
