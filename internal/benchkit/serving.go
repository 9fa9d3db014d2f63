package benchkit

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/dynp"
	"repro/internal/faultinject"
	"repro/internal/job"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/schedd"
	"repro/internal/shard"
	"repro/internal/solvepipe"
	"repro/internal/wal"
	"repro/internal/workload"
)

// ServingConfig parameterizes one serving benchmark leg: a full
// in-process schedd service (core + HTTP API) driven by the loadgen
// open-loop replayer over a synthetic CTC-like trace.
type ServingConfig struct {
	// Jobs is the number of submissions to replay (default 10000).
	Jobs int
	// Seed seeds the synthetic workload (default 1).
	Seed uint64
	// Accel compresses trace time (default 100000: CTC's mean 369 s
	// interarrival becomes ~3.7 ms of wall time).
	Accel float64
	// Batching sets MaxBatch 64 (self-clocked: each step coalesces what
	// queued during the previous one); off means MaxBatch 1, one replan
	// per submission.
	Batching bool
	// FaultP, if > 0, drives replans through the ILP pipeline with
	// injected solve faults at this probability (the degradation leg).
	FaultP float64
	// QueueBound overrides the submit queue bound (default: Jobs, so
	// the benchmark measures replan throughput, not 429 churn).
	QueueBound int
	// WAL, when true, routes every admission through a durable
	// write-ahead log in a temp directory (group-commit fsync, batch
	// bound WALFsyncEvery, default 64): the submit path then pays a real
	// disk flush before each 202, which is the durability overhead the
	// serving comparison quantifies.
	WAL           bool
	WALFsyncEvery int
	// Shards, when > 1, serves the replay through the sharded fabric
	// (internal/shard): the machine partitions into Shards sub-machines
	// with independent cores and replan loops behind one router, so the
	// planning work runs on as many OS threads as GOMAXPROCS allows.
	// WideLane sizes shard 0's sub-machine (0 = even partition); the CTC
	// width distribution needs 256 of 430 to keep every job servable.
	Shards   int
	WideLane int
	// DeadlineS, when > 0, attaches this start-SLO deadline (virtual
	// seconds) to every replayed submission, turning the leg into an
	// SLO-serving measurement: the twin's deadline rejections, latched
	// misses and anytime adoptions all land in the loadgen result.
	DeadlineS int64
	// SLOMargin is the twin's admission headroom (schedd.Config.SLOMargin).
	SLOMargin int64
	// TwinGateOff admits every deadline-bearing job regardless of its
	// predicted start (the pre-twin baseline leg): deadlines are still
	// recorded and misses still latch, nothing is rejected up front.
	TwinGateOff bool
	// Budget, when > 0, drives every step through the ILP solve
	// pipeline with this per-step budget (the interval-solve mode; no
	// injected faults, unlike FaultP).
	Budget time.Duration
	// Anytime runs the background optimizer alongside the interval
	// solver, each session bounded by AnytimeBudget. The equal-budget
	// comparison against a pure interval leg is Budget_baseline =
	// Budget_anytime + AnytimeBudget: the same solver allowance per
	// replan interval, spent in one burst or streamed continuously.
	Anytime       bool
	AnytimeBudget time.Duration
	// LoadFactor scales the CTC arrival intensity (interarrivals divide
	// by it; 0/1 = the paper's rate). The stock CTC mix runs the 430-way
	// machine near 0.86 utilization, where backlogs are transient;
	// SLO legs push it past saturation so a persistent waiting queue
	// exists for deadlines to bite on and the optimizer to reorder.
	LoadFactor float64
	// FCFSOnly restricts the dynP policy set to FCFS, which keeps
	// planned starts in admission order — the configuration under which
	// the twin's prediction is an upper bound the policy path never
	// violates (SLO legs use it so misses isolate optimizer behavior).
	FCFSOnly bool
}

// ServingBench runs one serving leg and returns the loadgen measurement
// plus the core's drain-time counters.
func ServingBench(cfg ServingConfig) (*loadgen.Result, *schedd.Counters, error) {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 10000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Accel <= 0 {
		cfg.Accel = 100000
	}
	if cfg.QueueBound <= 0 {
		cfg.QueueBound = cfg.Jobs
	}
	wcfg := workload.CTC()
	if cfg.LoadFactor > 0 {
		wcfg.MeanInterarrival /= cfg.LoadFactor
	}
	tr, err := workload.Generate(wcfg, cfg.Jobs, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}

	pols := []policy.Policy{policy.FCFS{}, policy.SJF{}, policy.LJF{}}
	if cfg.FCFSOnly {
		pols = []policy.Policy{policy.FCFS{}}
	}
	m, err := metrics.ByName("SLDwA")
	if err != nil {
		return nil, nil, err
	}
	if cfg.Shards > 1 {
		return shardedServingBench(cfg, tr, pols, m)
	}
	sched, err := dynp.New(pols, m, dynp.AdvancedDecider{})
	if err != nil {
		return nil, nil, err
	}
	scfg := schedd.Config{
		Machine:     tr.Processors,
		Scheduler:   sched,
		Clock:       schedd.NewWallClock(cfg.Accel),
		QueueBound:  cfg.QueueBound,
		MaxBatch:    1,
		SLOMargin:   cfg.SLOMargin,
		TwinGateOff: cfg.TwinGateOff,
		Metrics:     obs.NewRegistry(),
	}
	if cfg.Batching {
		scfg.MaxBatch = 64
	}
	if cfg.Budget > 0 || cfg.Anytime {
		scfg.ILP = &schedd.ILPConfig{
			Pipe:          solvepipe.Config{Budget: cfg.Budget},
			Anytime:       cfg.Anytime,
			AnytimeBudget: cfg.AnytimeBudget,
		}
	}
	var walLog *wal.Log
	if cfg.WAL {
		dir, err := os.MkdirTemp("", "benchwal-serving")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
		fsyncEvery := cfg.WALFsyncEvery
		if fsyncEvery <= 0 {
			fsyncEvery = 64
		}
		walLog, scfg.Recovery, err = wal.Open(wal.Options{Dir: dir, FsyncEvery: fsyncEvery})
		if err != nil {
			return nil, nil, err
		}
		defer walLog.Close()
		scfg.WAL = walLog
	}
	if cfg.FaultP > 0 {
		inj := faultinject.New(faultinject.NewProbability(cfg.Seed, cfg.FaultP))
		scfg.ILP = &schedd.ILPConfig{
			Pipe: solvepipe.Config{
				Budget:  200 * time.Millisecond,
				Retries: 1,
				Hook:    inj.Hook,
			},
		}
	}
	core, err := schedd.New(scfg)
	if err != nil {
		return nil, nil, err
	}
	core.Start()
	srv := httptest.NewServer(schedd.NewHandler(core))
	defer srv.Close()

	res, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:      srv.URL,
		Trace:        tr,
		Accel:        cfg.Accel,
		Sources:      8,
		WaitTimeout:  5 * time.Minute,
		SLODeadlineS: cfg.DeadlineS,
	})
	stopCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	final, stopErr := core.Stop(stopCtx)
	if err != nil {
		return nil, nil, err
	}
	if stopErr != nil {
		return nil, nil, fmt.Errorf("drain: %w", stopErr)
	}
	return res, &final.Counts, nil
}

// shardedServingBench is the Shards > 1 leg: the same replay served by
// the sharded fabric, each shard a full core with its own replan loop
// (and, with WAL, its own log namespace). Apart from the partitioning
// the per-core configuration matches the single-core leg, so the two
// results isolate the fabric's parallelism.
func shardedServingBench(cfg ServingConfig, tr *job.Trace, pols []policy.Policy, m metrics.Metric) (*loadgen.Result, *schedd.Counters, error) {
	var walRoot string
	if cfg.WAL {
		dir, err := os.MkdirTemp("", "benchwal-sharded")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
		walRoot = dir
	}
	var walLogs []*wal.Log
	factory := func(idx, machine int) (schedd.Config, error) {
		sched, err := dynp.New(pols, m, dynp.AdvancedDecider{})
		if err != nil {
			return schedd.Config{}, err
		}
		scfg := schedd.Config{
			Scheduler:   sched,
			Clock:       schedd.NewWallClock(cfg.Accel),
			QueueBound:  cfg.QueueBound,
			MaxBatch:    1,
			SLOMargin:   cfg.SLOMargin,
			TwinGateOff: cfg.TwinGateOff,
			Metrics:     obs.NewRegistry(),
		}
		if cfg.Budget > 0 || cfg.Anytime {
			scfg.ILP = &schedd.ILPConfig{
				Pipe:          solvepipe.Config{Budget: cfg.Budget},
				Anytime:       cfg.Anytime,
				AnytimeBudget: cfg.AnytimeBudget,
			}
		}
		if cfg.Batching {
			scfg.MaxBatch = 64
		}
		if cfg.FaultP > 0 {
			inj := faultinject.New(faultinject.NewProbability(cfg.Seed+uint64(idx), cfg.FaultP))
			scfg.ILP = &schedd.ILPConfig{
				Pipe: solvepipe.Config{
					Budget:  200 * time.Millisecond,
					Retries: 1,
					Hook:    inj.Hook,
				},
			}
		}
		if walRoot != "" {
			fsyncEvery := cfg.WALFsyncEvery
			if fsyncEvery <= 0 {
				fsyncEvery = 64
			}
			walLog, rec, err := wal.Open(wal.Options{
				Dir:        fmt.Sprintf("%s/shard-%d", walRoot, idx),
				FsyncEvery: fsyncEvery,
			})
			if err != nil {
				return schedd.Config{}, err
			}
			walLogs = append(walLogs, walLog)
			scfg.WAL, scfg.Recovery = walLog, rec
		}
		return scfg, nil
	}
	r, err := shard.New(shard.Config{
		Shards:   cfg.Shards,
		Machine:  tr.Processors,
		WideLane: cfg.WideLane,
		Factory:  factory,
		Metrics:  obs.NewRegistry(),
	})
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		for _, l := range walLogs {
			l.Close()
		}
	}()
	r.Start()
	srv := httptest.NewServer(shard.NewHandler(r))
	defer srv.Close()

	res, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:      srv.URL,
		Trace:        tr,
		Accel:        cfg.Accel,
		Sources:      8,
		WaitTimeout:  5 * time.Minute,
		SLODeadlineS: cfg.DeadlineS,
	})
	stopCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	final, stopErr := r.Stop(stopCtx)
	if err != nil {
		return nil, nil, err
	}
	if stopErr != nil {
		return nil, nil, fmt.Errorf("drain: %w", stopErr)
	}
	return res, &final.Counts, nil
}
