// Package schedd is the online scheduling service core of the
// reproduction: it wraps the self-tuning dynP step (internal/dynp) and
// the fault-tolerant ILP solve pipeline (internal/solvepipe) behind a
// submission API, turning the batch simulator's replan-per-event loop
// into a production-shaped serving loop.
//
// The design is a single-writer replan loop with lock-free read
// snapshots: exactly one goroutine mutates scheduler state (the paper's
// planning-based RMS is inherently serial — every plan is a function of
// the full queue), while query traffic reads an immutable *Snapshot
// published through an atomic pointer. Around that loop sit the serving
// concerns the batch CLIs never needed:
//
//   - self-clocked submission batching: the writer plans each arrival
//     as soon as it is free, coalescing whatever queued up during the
//     previous step (bounded by MaxBatch) into ONE self-tuning step;
//   - admission control: a bounded submit queue (ErrQueueFull maps to
//     HTTP 429 + Retry-After) and per-source token-bucket rate limiting;
//   - graceful drain: Stop finishes the in-flight replan, plans every
//     already-admitted submission, and publishes a final snapshot, so
//     an accepted job is never dropped;
//   - degradation surfacing: when the ILP pipeline exhausts its retry
//     ladder the step falls back to the basic-policy schedule and the
//     API reports degraded=true with the failure reason.
//
// Time is virtual (trace seconds) via the Clock abstraction, so the
// same core serves live traffic (wall clock) and accelerated trace
// replay (internal/loadgen).
package schedd

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anytime"
	"repro/internal/dynp"
	"repro/internal/ilpsched"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/solvepipe"
	"repro/internal/wal"
)

// Admission errors. The HTTP layer maps ErrQueueFull and
// *RateLimitedError to 429 with a Retry-After hint, ErrDraining to 503.
var (
	ErrQueueFull = errors.New("schedd: submit queue full")
	ErrDraining  = errors.New("schedd: draining, not accepting submissions")
	ErrStopped   = errors.New("schedd: service stopped")
)

// RateLimitedError reports a per-source rate-limit rejection.
type RateLimitedError struct {
	Source     string
	RetryAfter time.Duration
}

func (e *RateLimitedError) Error() string {
	return fmt.Sprintf("schedd: source %q rate limited (retry after %v)", e.Source, e.RetryAfter)
}

// SLOExceededError reports a deadline-aware admission rejection: the
// digital twin predicted a planned start past the client's SLO deadline,
// so admitting the job would only manufacture a guaranteed miss. The
// HTTP layer maps it to 429 with a Retry-After hint sized to when the
// predicted backlog would clear enough for the deadline to be met.
type SLOExceededError struct {
	// Deadline is the absolute virtual latest acceptable start.
	Deadline int64
	// PredictedStart is the twin's earliest-fit planned start.
	PredictedStart int64
	// RetryAfter is the wall-clock hint until resubmission could fit.
	RetryAfter time.Duration
}

func (e *SLOExceededError) Error() string {
	return fmt.Sprintf("schedd: slo_deadline: predicted start %d past deadline %d (retry after %v)",
		e.PredictedStart, e.Deadline, e.RetryAfter)
}

// ValidationError reports a malformed submission (HTTP 400).
type ValidationError struct{ Reason string }

func (e *ValidationError) Error() string { return "schedd: invalid submission: " + e.Reason }

// JobState is the lifecycle of a served job.
type JobState string

const (
	// StateQueued: admitted, waiting for the next self-tuning step.
	StateQueued JobState = "queued"
	// StateWaiting: planned with a future start time.
	StateWaiting JobState = "waiting"
	// StateRunning: started; End is the projected completion.
	StateRunning JobState = "running"
	// StateDone: completed.
	StateDone JobState = "done"
)

// SubmitRequest is one job submission.
type SubmitRequest struct {
	// Width is the requested processor count (1..machine size).
	Width int
	// Estimate is the user-supplied estimated duration in seconds.
	Estimate int64
	// Runtime is the actual duration for self-executing (replay) mode;
	// zero defaults to Estimate. Must not exceed Estimate.
	Runtime int64
	// Source identifies the submitter for rate limiting ("" = anonymous).
	Source string
	// IdempotencyKey, if non-empty, dedupes resubmissions: a second
	// submit with the same key (including after a crash and recovery)
	// returns the original job's ID with Deduplicated set instead of
	// admitting a duplicate.
	IdempotencyKey string
	// Deadline, if > 0, is the client's SLO on the planned start in
	// virtual seconds relative to admission: the job must be planned to
	// start no later than now+Deadline. Admission runs the digital-twin
	// check (see SLOExceededError); 0 means no SLO.
	Deadline int64
}

// SubmitResponse acknowledges an admitted job.
type SubmitResponse struct {
	ID    int      `json:"id"`
	State JobState `json:"state"`
	Now   int64    `json:"now"`
	// TraceID echoes the request's trace ID ("" when untraced) so the
	// submitter can grep the JSONL trace for the job's whole path.
	TraceID string `json:"trace_id,omitempty"`
	// Deduplicated reports the submission matched an earlier job's
	// idempotency key; ID is that job's ID and no new job was admitted.
	Deduplicated bool `json:"deduplicated,omitempty"`
	// Shard is the shard the job was routed to (filled by the front-end
	// router; always 0 on a standalone core).
	Shard int `json:"shard,omitempty"`
}

// JobStatus is the queryable state of one job.
type JobStatus struct {
	ID           int      `json:"id"`
	State        JobState `json:"state"`
	Width        int      `json:"width"`
	Estimate     int64    `json:"estimate_s"`
	Submit       int64    `json:"submit"`
	PlannedStart int64    `json:"planned_start"` // -1 until planned
	Start        int64    `json:"start"`         // -1 until started
	End          int64    `json:"end"`           // -1 until done (running: projection)
	// PlanLatencyMs is the wall-clock time from admission to the first
	// adopted plan containing the job (-1 until planned).
	PlanLatencyMs float64 `json:"plan_latency_ms"`
	// Degraded reports that the step that (last) planned the job fell
	// back to the basic-policy schedule.
	Degraded bool `json:"degraded,omitempty"`
	// Deadline is the absolute virtual latest acceptable planned start
	// the job was admitted with (0 = no SLO).
	Deadline int64 `json:"deadline,omitempty"`
	// SLOMiss reports the job was, at some point, planned to start past
	// its deadline (latched: once missed, always reported).
	SLOMiss bool `json:"slo_miss,omitempty"`
	// TraceID is the request trace ID the job was submitted with.
	TraceID string `json:"trace_id,omitempty"`
	// Shard is the shard that owns the job (filled by the front-end
	// router; always 0 when read from a core directly).
	Shard int `json:"shard,omitempty"`
}

// PlannedEntry is one row of the published schedule.
type PlannedEntry struct {
	JobID    int   `json:"id"`
	Width    int   `json:"width"`
	Start    int64 `json:"start"`
	Estimate int64 `json:"estimate_s"`
}

// Counters are the snapshot's monotone totals.
type Counters struct {
	Submitted     int64 `json:"submitted"`
	Planned       int64 `json:"planned"`
	Started       int64 `json:"started"`
	Completed     int64 `json:"completed"`
	Steps         int64 `json:"steps"`
	Replans       int64 `json:"replans"`
	Batches       int64 `json:"batches"`
	BatchedJobs   int64 `json:"batched_jobs"`
	DegradedSteps int64 `json:"degraded_steps"`
}

// Snapshot is an immutable view of the service, published by the
// writer loop after every state change and read lock-free by query
// traffic. Jobs that are admitted but not yet planned, and jobs that
// already completed, are tracked separately (see Core.Job).
type Snapshot struct {
	// Now is the virtual time of publication.
	Now int64 `json:"now"`
	// Version increments with every published snapshot.
	Version int64 `json:"version"`
	// Draining reports the service no longer accepts submissions.
	Draining bool `json:"draining"`
	// Active holds every planned-but-not-completed job by ID.
	Active map[int]JobStatus `json:"-"`
	// Schedule is the current plan: waiting jobs by (start, ID).
	Schedule []PlannedEntry `json:"schedule"`
	// Degraded reports the most recent self-tuning step fell back to
	// the basic-policy schedule; Reason classifies why.
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Policy is the currently active dynP policy.
	Policy string `json:"policy"`
	// Counts are the monotone service totals.
	Counts Counters `json:"counts"`
}

// ILPConfig enables ILP-driven steps: every self-tuning step is solved
// through the solvepipe step engine and the compacted optimal schedule
// replaces the basic-policy one. Unlike sim.ILPConfig there is no
// abort-on-failure mode: a serving process always degrades gracefully.
// The shared fields default per step like in the simulator.
type ILPConfig struct {
	solvepipe.StepConfig
	// Anytime runs the background anytime-optimizer core alongside the
	// per-step solves: the branch and bound keeps improving the adopted
	// plan between replan intervals, and every strictly better validated
	// incumbent is adopted and published without blocking the writer.
	Anytime bool
	// AnytimeBudget bounds one anytime solve session (default: the
	// pipeline's Budget default). A session also ends when the queue
	// changes (preemption) or the search proves optimality.
	AnytimeBudget time.Duration
}

// Config parameterizes the service core.
type Config struct {
	// Machine is the processor count (required).
	Machine int
	// Scheduler is the self-tuning dynP scheduler (required). The core
	// is its only user once Start is called.
	Scheduler *dynp.Scheduler
	// Clock drives virtual time; nil defaults to NewWallClock(1).
	Clock Clock
	// QueueBound caps the submit queue (default 256). A full queue
	// rejects with ErrQueueFull.
	QueueBound int
	// MaxBatch caps how many already-queued arrivals one self-tuning
	// step coalesces (default 64). 1 replans per submission (batching
	// off). The writer never waits for stragglers: batches grow only
	// while it is busy stepping.
	MaxBatch int
	// RatePerSource, if > 0, enforces a per-source token bucket of this
	// many submissions per wall second with the given Burst (default 1).
	// Every source has its own bucket: the admitted total grows with the
	// number of sources.
	RatePerSource float64
	Burst         int
	// Weights scales the bucket of the named sources (default 1.0 for
	// unlisted sources): a weight-w source is admitted at w·RatePerSource
	// with a burst of w·Burst.
	Weights map[string]float64
	// SLOMargin is the safety headroom (virtual seconds) the digital
	// twin adds to its predicted start before comparing it against a
	// submission's deadline. The prediction is exact only at admission
	// time: between admission and every later handoff the virtual
	// clock keeps running while the writer batches, solves and adopts,
	// so actual starts slip behind the prediction by the accumulated
	// processing latency. A margin covering that slip turns the
	// deadline check from best-effort into a guarantee the planner
	// paths (FCFS order, step SLO guard, anytime adoption gate) can
	// actually keep. Zero (the default) admits up to the exact
	// predicted deadline.
	SLOMargin int64
	// TwinGateOff records submission deadlines (and latches SLO misses
	// against them) without letting the digital twin reject anything:
	// every deadline-bearing job is admitted no matter how hopeless its
	// predicted start. This is the pre-twin serving behavior, kept as a
	// measurement baseline — the serving benchmark runs one leg with the
	// gate off to price what the admission twin saves.
	TwinGateOff bool
	// ILP, if non-nil, drives steps through the solve pipeline.
	ILP *ILPConfig
	// Trace and Metrics are the observability sinks (nil-safe).
	Trace   *obs.Tracer
	Metrics *obs.Registry
	// ReplanBuffer caps the flight recorder's ring of replan summaries
	// (default 64). The recorder is always on.
	ReplanBuffer int
	// SlowReplan, if > 0, is the wall-clock threshold past which a
	// replan's reconstructed span tree is dumped to Trace — even when
	// step tracing is sampled off via TraceSampleEvery.
	SlowReplan time.Duration
	// TraceSampleEvery, if > 1, traces only every Nth step/replan span
	// (and its solver internals). Per-job request events (submit,
	// batched, planned, published, start, end), the flight recorder and
	// slow-replan dumps are never sampled away.
	TraceSampleEvery int
	// WAL, if non-nil, makes every admission decision durable: a
	// submission is fsynced (group commit) before Submit returns, and
	// plan adoptions, starts, completions and rejections are logged by
	// the writer loop. The core owns appends but not the log's
	// lifecycle; the caller opens it (wal.Open) and closes it after
	// Stop.
	WAL *wal.Log
	// Recovery is the replay returned by wal.Open; the writer re-applies
	// it before accepting traffic (Submit returns ErrRecovering until
	// then, and Phase reports "replaying").
	Recovery *wal.Replay
	// SnapshotEvery is how many WAL records accumulate between state
	// snapshots (default 1024; snapshots bound replay time).
	SnapshotEvery int
	// PanicHook, if non-nil, is invoked with the recovered panic value
	// when the writer loop panics, before the panic is re-raised — the
	// place to flush tracers and dump the flight recorder for post-crash
	// forensics.
	PanicHook func(any)
	// Events, if non-nil, receives writer-loop lifecycle events
	// (snapshot publications, first plans, completions) for streaming
	// transports. Callbacks run on the writer goroutine and must not
	// block.
	Events EventSink
	// ShardID identifies this core among the router's shards (0 for a
	// standalone core). It namespaces the synthetic idempotency keys the
	// migration protocol mints, so keys from different source shards can
	// never collide at a target.
	ShardID int
	// PlanLatencyWindow is how much recent history PlanLatencyQuantile
	// covers (default 15s). The rebalance signal must track *current*
	// shard behavior: a lifetime-cumulative quantile would keep a
	// transient slowdown visible forever and migrate jobs off a shard
	// long after it recovered.
	PlanLatencyWindow time.Duration
}

// submission travels from the admission path to the writer loop.
type submission struct {
	job       *job.Job
	source    string
	trace     string // request trace ID ("" when untraced)
	idemKey   string // idempotency key ("" = unkeyed; keyed jobs never migrate)
	deadline  int64  // absolute virtual SLO deadline on the planned start (0 = none)
	admitWall time.Time
	walSeq    uint64 // the submit record's WAL seq (0 without a WAL)
}

// rec is the writer-side record of an active job.
type rec struct {
	job          *job.Job
	admitWall    time.Time
	trace        string
	planned      bool
	planLatency  time.Duration
	plannedStart int64
	start        int64
	degraded     bool
	deadline     int64 // absolute virtual SLO deadline (0 = none)
	sloMiss      bool  // latched on the first plan past the deadline
}

// Core is the scheduling service. Create with New, then Start; submit
// with Submit; stop with Stop.
type Core struct {
	cfg     Config
	clock   Clock
	total   int
	limiter *limiter

	submitCh chan *submission
	drainCh  chan chan *Snapshot
	loopDone chan struct{}

	gate     sync.RWMutex // serializes Submit sends against drain
	draining bool
	started  atomic.Bool
	stopOnce sync.Once
	final    *Snapshot
	stopErr  error

	nextID   atomic.Int64
	accepted atomic.Int64
	pending  sync.Map // id -> JobStatus, admitted but not yet planned
	// twinMu serializes deadline-bearing admissions from twin
	// prediction through the pending-store, so every prediction sees
	// all previously admitted jobs (see SubmitCtx).
	twinMu sync.Mutex
	done   sync.Map // id -> JobStatus, completed (write-once)
	snap   atomic.Pointer[Snapshot]

	// Durability state (see durable.go). phase gates Submit during WAL
	// replay; idem maps idempotency keys to job IDs; inflight holds the
	// WAL seqs of accepted submissions the writer has not yet consumed
	// (the snapshot lower bound); lastSnapSeq is writer-owned.
	phase       atomic.Int32
	idem        sync.Map // idempotency key -> job ID
	inflightMu  sync.Mutex
	inflight    map[uint64]struct{}
	lastSnapSeq uint64

	// Migration state (see migrate.go): pendingMig holds migrated-out
	// jobs whose hand-off to the target shard has not been confirmed;
	// migAliases maps a migrated job's local ID to its new global ID at
	// the target. Both survive crashes through the WAL.
	migMu      sync.Mutex
	pendingMig map[int]MigratedJob
	migAliases map[int]int64

	// Writer-loop state (owned by run()).
	vnow      int64
	waiting   map[int]*job.Job
	recs      map[int]*rec
	running   map[int]*rec
	plan      map[int]int64
	stepper   *solvepipe.Stepper // ILP-driven steps only
	version   int64
	counts    Counters
	degraded  bool
	degReason string
	// newlyPlanned defers pending-map deletion until the snapshot that
	// carries the job is published, so a concurrent Job() lookup never
	// falls into the gap between the two.
	newlyPlanned []int

	// Flight recorder and step-span sampling state (stepSeq is owned by
	// the writer loop).
	recorder *flightRecorder
	stepSeq  int64

	// Anytime-optimizer state. The background core (nil when off) is
	// fed the latest problem after every writer mutation; anyNudge is
	// the nonblocking wake-up the core's Notify fires; the lastAny*
	// fields are the writer's staleness key for adoption (they describe
	// the most recently pushed problem). anyDirty marks that this
	// writer pass mutated queue state and the core needs a fresh push.
	any         *anytime.Core
	anyNudge    chan struct{}
	lastAnyInst *ilpsched.Instance
	lastAnyFp   uint64
	lastAnySeq  int64
	anyDirty    bool

	// lastPlanWall is the wall-clock time of the last plan adoption
	// (unix nanos, atomic: written by the writer, read by health and
	// metrics handlers for the plan-age gauge).
	lastPlanWall atomic.Int64

	// Observability instruments (nil-safe).
	trace        *obs.Tracer
	cSubmits     *obs.Counter
	cRejectFull  *obs.Counter
	cRejectRate  *obs.Counter
	cRejectDrain *obs.Counter
	cRejectRecov *obs.Counter
	cDeduped     *obs.Counter
	cSteps       *obs.Counter
	cReplans     *obs.Counter
	cBatches     *obs.Counter
	cPlanned     *obs.Counter
	cStarts      *obs.Counter
	cEnds        *obs.Counter
	cDegraded    *obs.Counter
	cRejectSLO   *obs.Counter
	cSLOMiss     *obs.Counter
	cSLOGuard    *obs.Counter
	cAnyAdopted  *obs.Counter
	cAnyStale    *obs.Counter
	cAnyRejected *obs.Counter
	gPlanAge     *obs.Gauge
	hBatchSize   *obs.Histogram
	hQueueDepth  *obs.Histogram
	hPlanLatency *obs.Histogram
	// winPlanLat is the sliding-window twin of hPlanLatency: the
	// rebalance signal reads this one (recent behavior), the cumulative
	// histogram stays for metrics export. Always present, so the signal
	// works even without a metrics registry.
	winPlanLat *obs.WindowedHistogram
	// Labeled families (bounded cardinality; see obs.MaxSeries).
	vSubmits    *obs.CounterVec   // by source
	vStepOut    *obs.CounterVec   // by outcome, policy
	vDegReason  *obs.CounterVec   // by bounded reason class
	hvReplanDur *obs.HistogramVec // by replan kind
}

// New validates the configuration and creates a stopped core.
func New(cfg Config) (*Core, error) {
	if cfg.Machine < 1 {
		return nil, fmt.Errorf("schedd: machine size %d < 1", cfg.Machine)
	}
	if cfg.Scheduler == nil {
		return nil, errors.New("schedd: nil scheduler")
	}
	if cfg.Clock == nil {
		cfg.Clock = NewWallClock(1)
	}
	if cfg.QueueBound < 1 {
		cfg.QueueBound = 256
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 64
	}
	if cfg.SnapshotEvery < 1 {
		cfg.SnapshotEvery = 1024
	}
	c := &Core{
		cfg:        cfg,
		clock:      cfg.Clock,
		total:      cfg.Machine,
		limiter:    newLimiter(cfg.RatePerSource, cfg.Burst, cfg.Weights),
		submitCh:   make(chan *submission, cfg.QueueBound),
		drainCh:    make(chan chan *Snapshot),
		loopDone:   make(chan struct{}),
		waiting:    map[int]*job.Job{},
		recs:       map[int]*rec{},
		running:    map[int]*rec{},
		plan:       map[int]int64{},
		inflight:   map[uint64]struct{}{},
		pendingMig: map[int]MigratedJob{},
		migAliases: map[int]int64{},
	}
	if cfg.WAL != nil {
		// Submissions are refused until the writer loop has replayed the
		// log (Start flips the phase to ready once recovery finishes).
		c.phase.Store(phaseReplaying)
	}
	if cfg.ILP != nil {
		c.stepper = solvepipe.NewStepper(cfg.ILP.StepConfig, cfg.Metrics)
	}
	c.recorder = newFlightRecorder(cfg.ReplanBuffer)
	c.trace = cfg.Trace
	latBounds := []float64{0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000}
	c.winPlanLat = obs.NewWindowedHistogram(latBounds, cfg.PlanLatencyWindow, 5)
	if reg := cfg.Metrics; reg != nil {
		depthBounds := []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}
		c.cSubmits = reg.Counter("schedd.submits")
		c.cRejectFull = reg.Counter("schedd.rejects.queue_full")
		c.cRejectRate = reg.Counter("schedd.rejects.rate_limited")
		c.cRejectDrain = reg.Counter("schedd.rejects.draining")
		c.cRejectRecov = reg.Counter("schedd.rejects.recovering")
		c.cDeduped = reg.Counter("schedd.submits.deduplicated")
		c.cSteps = reg.Counter("schedd.steps")
		c.cReplans = reg.Counter("schedd.replans")
		c.cBatches = reg.Counter("schedd.batches")
		c.cPlanned = reg.Counter("schedd.jobs.planned")
		c.cStarts = reg.Counter("schedd.starts")
		c.cEnds = reg.Counter("schedd.completions")
		c.cDegraded = reg.Counter("schedd.degraded.steps")
		c.cRejectSLO = reg.Counter("schedd.rejects.slo_deadline")
		c.cSLOMiss = reg.Counter("schedd.slo.misses")
		c.cSLOGuard = reg.Counter("schedd.steps.slo_guarded")
		c.cAnyAdopted = reg.Counter("anytime.incumbents.adopted")
		c.cAnyStale = reg.Counter("anytime.incumbents.stale")
		c.cAnyRejected = reg.Counter("anytime.incumbents.rejected")
		c.gPlanAge = reg.Gauge("schedd.plan.age.ms")
		c.hBatchSize = reg.Histogram("schedd.batch.size", depthBounds)
		c.hQueueDepth = reg.Histogram("schedd.queue_depth", depthBounds)
		c.hPlanLatency = reg.Histogram("schedd.submit_to_plan_ms", latBounds)
		c.vSubmits = reg.CounterVec("schedd.submits.by_source", "source")
		c.vStepOut = reg.CounterVec("schedd.step.outcome", "outcome", "policy")
		c.vDegReason = reg.CounterVec("schedd.degraded.by_reason", "reason")
		c.hvReplanDur = reg.HistogramVec("schedd.replan.duration.ms", latBounds, "kind")
	}
	if cfg.Trace != nil || cfg.Metrics != nil {
		cfg.Scheduler.SetObs(cfg.Trace, cfg.Metrics)
	}
	if cfg.ILP != nil && cfg.ILP.Anytime {
		c.anyNudge = make(chan struct{}, 1)
		pipe := cfg.ILP.Pipe
		if cfg.ILP.AnytimeBudget > 0 {
			pipe.Budget = cfg.ILP.AnytimeBudget
		}
		c.any = anytime.New(anytime.Config{
			Pipe:    pipe,
			Trace:   cfg.Trace,
			Metrics: cfg.Metrics,
			Notify: func() {
				select {
				case c.anyNudge <- struct{}{}:
				default:
				}
			},
		})
	}
	c.lastPlanWall.Store(time.Now().UnixNano())
	c.publish()
	return c, nil
}

// Start launches the writer loop. It must be called exactly once.
func (c *Core) Start() {
	if !c.started.CompareAndSwap(false, true) {
		panic("schedd: Start called twice")
	}
	go c.run()
}

// Metrics returns the registry the core was configured with (may be nil).
func (c *Core) Metrics() *obs.Registry { return c.cfg.Metrics }

// QueueDepth returns the current admitted-but-unplanned backlog.
func (c *Core) QueueDepth() int { return len(c.submitCh) }

// PlanLatencyQuantile estimates the q-quantile of the submit-to-plan
// latency distribution in milliseconds over a sliding window of recent
// samples (Config.PlanLatencyWindow, default 15s; 0 with no samples in
// the window). This is the signal the shard rebalancer compares across
// cores — windowed so a transient slowdown ages out instead of marking
// the shard slow forever, and independent of the metrics registry.
func (c *Core) PlanLatencyQuantile(q float64) float64 {
	return c.winPlanLat.Quantile(q)
}

// Submit admits one job without a request context; see SubmitCtx.
func (c *Core) Submit(req SubmitRequest) (SubmitResponse, error) {
	return c.SubmitCtx(context.Background(), req)
}

// SubmitCtx admits one job: it validates the request, applies
// per-source rate limiting and the bounded submit queue, and hands the
// job to the writer loop. A trace ID in ctx (obs.WithTraceID) rides the
// submission through batching, planning and publication, so the whole
// submit→planned path shares one trace. Safe for concurrent use.
func (c *Core) SubmitCtx(ctx context.Context, req SubmitRequest) (SubmitResponse, error) {
	if req.Width < 1 || req.Width > c.total {
		return SubmitResponse{}, &ValidationError{Reason: fmt.Sprintf("width %d outside [1, %d]", req.Width, c.total)}
	}
	if req.Estimate < 1 {
		return SubmitResponse{}, &ValidationError{Reason: fmt.Sprintf("estimate %d < 1", req.Estimate)}
	}
	if req.Runtime == 0 {
		req.Runtime = req.Estimate
	}
	if req.Runtime < 1 || req.Runtime > req.Estimate {
		return SubmitResponse{}, &ValidationError{Reason: fmt.Sprintf("runtime %d outside [1, estimate %d]", req.Runtime, req.Estimate)}
	}
	if req.Deadline < 0 {
		return SubmitResponse{}, &ValidationError{Reason: fmt.Sprintf("deadline %d < 0", req.Deadline)}
	}
	c.gate.RLock()
	defer c.gate.RUnlock()
	if c.draining {
		c.cRejectDrain.Inc()
		return SubmitResponse{}, ErrDraining
	}
	if c.phase.Load() == phaseReplaying {
		c.cRejectRecov.Inc()
		return SubmitResponse{}, ErrRecovering
	}
	trace := obs.TraceIDFrom(ctx)
	// Idempotent resubmission: a known key returns the original job
	// before burning rate-limit tokens or queue capacity.
	if key := req.IdempotencyKey; key != "" {
		if v, ok := c.idem.Load(key); ok {
			return c.dedupResponse(v.(int), trace), nil
		}
	}
	if ok, wait := c.limiter.allow(req.Source, time.Now()); !ok {
		c.cRejectRate.Inc()
		return SubmitResponse{}, &RateLimitedError{Source: req.Source, RetryAfter: wait}
	}
	now := c.clock.Now()
	var deadline int64
	locked := false
	unlockTwin := func() {
		if locked {
			locked = false
			c.twinMu.Unlock()
		}
	}
	defer unlockTwin()
	if req.Deadline > 0 {
		deadline = now + req.Deadline
	}
	if deadline > 0 && !c.cfg.TwinGateOff {
		// Deadline-aware admission: reject only jobs whose *planned*
		// start, per the digital twin of the current plan, would bust
		// the SLO — admitting them would manufacture a guaranteed miss.
		// Deadline admissions are serialized from prediction through the
		// pending-store below: without that, two concurrent marginal
		// admissions would each predict against a queue missing the
		// other, and jointly bust a deadline either alone would keep.
		c.twinMu.Lock()
		locked = true
		if pred, ok := c.predictStart(now, req.Width, req.Estimate); ok && pred+c.cfg.SLOMargin > deadline {
			c.cRejectSLO.Inc()
			c.trace.EmitCtx(ctx, "schedd.reject.slo",
				obs.Int("t", now),
				obs.Int("predicted", pred),
				obs.Int("deadline", deadline),
				obs.Str("source", req.Source))
			return SubmitResponse{}, &SLOExceededError{
				Deadline:       deadline,
				PredictedStart: pred,
				// Resubmitted once the virtual clock reaches
				// pred+margin-Deadline, a fresh window [t, t+Deadline]
				// would cover the predicted start plus margin.
				RetryAfter: c.clock.Until(pred + c.cfg.SLOMargin - req.Deadline),
			}
		}
	}
	id := int(c.nextID.Add(1))
	if key := req.IdempotencyKey; key != "" {
		// Two racing submits with the same key: exactly one claims it.
		if prev, loaded := c.idem.LoadOrStore(key, id); loaded {
			return c.dedupResponse(prev.(int), trace), nil
		}
	}
	j := &job.Job{ID: id, Submit: now, Width: req.Width, Estimate: req.Estimate, Runtime: req.Runtime}
	sub := &submission{job: j, source: req.Source, trace: trace, idemKey: req.IdempotencyKey, deadline: deadline, admitWall: time.Now()}
	c.pending.Store(id, JobStatus{
		ID: id, State: StateQueued, Width: j.Width, Estimate: j.Estimate, TraceID: trace,
		Submit: now, PlannedStart: -1, Start: -1, End: -1, PlanLatencyMs: -1,
		Deadline: deadline,
	})
	// The job is visible to the next prediction; the fsync below must
	// not run under the twin lock.
	unlockTwin()
	if w := c.cfg.WAL; w != nil {
		// The durability barrier: the submit record is fsynced (group
		// commit amortizes the cost across concurrent admissions) before
		// the response can commit. onSeq registers the seq in the
		// in-flight set atomically with its assignment, so a snapshot
		// taken before the writer consumes this submission stays below
		// it.
		seq, err := w.AppendSync(walSubmit, submitWAL{
			ID: id, Submit: now, Width: j.Width, Estimate: j.Estimate, Runtime: j.Runtime,
			Source: req.Source, Trace: trace, IdemKey: req.IdempotencyKey, Deadline: deadline,
		}, c.inflightAdd)
		if err != nil {
			c.pending.Delete(id)
			if req.IdempotencyKey != "" {
				c.idem.Delete(req.IdempotencyKey)
			}
			c.inflightDone(seq)
			return SubmitResponse{}, fmt.Errorf("schedd: wal append: %w", err)
		}
		sub.walSeq = seq
	}
	select {
	case c.submitCh <- sub:
	default:
		c.pending.Delete(id)
		if req.IdempotencyKey != "" {
			c.idem.Delete(req.IdempotencyKey)
		}
		if sub.walSeq != 0 {
			// The submit record is already durable; log the rejection so
			// replay drops the job again (audit trail of the 429).
			c.inflightDone(sub.walSeq)
			c.walAppend(walReject, rejectWAL{ID: id, Reason: "queue_full", IdemKey: req.IdempotencyKey})
		}
		c.cRejectFull.Inc()
		return SubmitResponse{}, ErrQueueFull
	}
	c.cSubmits.Inc()
	c.vSubmits.With(req.Source).Inc()
	c.trace.EmitCtx(ctx, "schedd.submit",
		obs.Int("t", now),
		obs.Int("job", int64(id)),
		obs.Int("width", int64(j.Width)),
		obs.Str("source", req.Source))
	return SubmitResponse{ID: id, State: StateQueued, Now: now, TraceID: trace}, nil
}

// dedupResponse acknowledges an idempotent resubmission with the
// original job's current state.
func (c *Core) dedupResponse(id int, trace string) SubmitResponse {
	c.cDeduped.Inc()
	state := StateQueued
	if st, ok := c.Job(id); ok {
		state = st.State
	}
	return SubmitResponse{ID: id, State: state, Now: c.clock.Now(), TraceID: trace, Deduplicated: true}
}

// Replans returns the flight recorder's replan summaries, newest first.
func (c *Core) Replans() []ReplanRecord { return c.recorder.list() }

// Snapshot returns the latest published view (never nil).
func (c *Core) Snapshot() *Snapshot { return c.snap.Load() }

// Job returns the status of the job with the given ID. It consults the
// active snapshot, then the completed set, then the admitted-but-
// unplanned set, then the pending-migration set — all without taking
// the writer's locks.
func (c *Core) Job(id int) (JobStatus, bool) {
	if st, ok := c.snap.Load().Active[id]; ok {
		return st, true
	}
	if v, ok := c.done.Load(id); ok {
		return v.(JobStatus), true
	}
	if v, ok := c.pending.Load(id); ok {
		// The writer may have planned (or even completed) the job
		// between the snapshot read and this lookup; re-check so a
		// moved job is not reported as queued with stale fields.
		if st, ok2 := c.snap.Load().Active[id]; ok2 {
			return st, true
		}
		if d, ok2 := c.done.Load(id); ok2 {
			return d.(JobStatus), true
		}
		return v.(JobStatus), true
	}
	// A job stolen for migration but not yet admitted by its target —
	// including after crash-recovery replay, before the first hand-off
	// tick — is still queued, just briefly homeless. StealQueued records
	// the migration before deleting the pending entry, so every job is
	// visible in at least one of the two sets until the hand-off
	// confirms (after which the front end's alias table takes over).
	c.migMu.Lock()
	m, ok := c.pendingMig[id]
	c.migMu.Unlock()
	if ok {
		return JobStatus{
			ID: id, State: StateQueued, Width: m.Width, Estimate: m.Estimate, TraceID: m.Trace,
			Submit: m.Submit, PlannedStart: -1, Start: -1, End: -1, PlanLatencyMs: -1,
		}, true
	}
	return JobStatus{}, false
}

// Stop drains the service: it blocks new submissions, lets the writer
// finish any in-flight replan, plans every already-admitted submission,
// publishes the final snapshot and stops the loop. Safe to call more
// than once; later calls return the first result. The context bounds
// the wait for the writer to finish.
func (c *Core) Stop(ctx context.Context) (*Snapshot, error) {
	c.stopOnce.Do(func() {
		c.gate.Lock()
		c.draining = true
		c.gate.Unlock()
		if !c.started.Load() {
			// Never started: nothing to drain.
			c.final = c.snap.Load()
			return
		}
		reply := make(chan *Snapshot, 1)
		select {
		case c.drainCh <- reply:
		case <-ctx.Done():
			c.stopErr = fmt.Errorf("schedd: drain request: %w", context.Cause(ctx))
			return
		}
		select {
		case c.final = <-reply:
		case <-ctx.Done():
			c.stopErr = fmt.Errorf("schedd: drain wait: %w", context.Cause(ctx))
		}
	})
	return c.final, c.stopErr
}

// run is the single-writer replan loop. All scheduler and plan state is
// owned by this goroutine; everything it shares is published as
// immutable snapshots.
func (c *Core) run() {
	defer close(c.loopDone)
	defer func() {
		// The daemon's panic path: give the hook a chance to flush the
		// tracer and dump the flight recorder before the crash surfaces,
		// then re-raise so the process still dies loudly.
		if r := recover(); r != nil {
			if h := c.cfg.PanicHook; h != nil {
				h(r)
			}
			panic(r)
		}
	}()
	if c.any != nil {
		c.any.Start()
		defer c.any.Stop()
	}
	c.recoverFromWAL()
	c.pushAnytime()
	for {
		var timerC <-chan time.Time
		var timer *time.Timer
		if next, ok := c.nextEventTime(); ok {
			timer = time.NewTimer(c.clock.Until(next))
			timerC = timer.C
		}
		select {
		case sub := <-c.submitCh:
			batch := c.collectBatch(sub)
			c.advance()
			c.step(batch)
			c.publish()
			c.maybeSnapshot()
		case <-timerC:
			c.advance()
			c.publish()
			c.maybeSnapshot()
		case <-c.anyNudge:
			// The anytime core found a better plan for (what it believes
			// is) the current queue. Adoption re-checks freshness on this
			// goroutine; a stale or non-improving plan is dropped without
			// a publish. anyNudge is nil (blocks forever) when off.
			if plan := c.adoptAnytime(); plan != nil {
				c.publish()
				c.emitPlanImproved(plan)
				c.maybeSnapshot()
			}
		case reply := <-c.drainCh:
			if timer != nil {
				timer.Stop()
			}
			c.finalDrain()
			c.publish()
			c.snapshotNow() // a clean drain leaves a replay-free log
			reply <- c.snap.Load()
			return
		}
		if timer != nil {
			timer.Stop()
		}
		// Whenever this pass mutated queue state (new arrivals, starts,
		// completions — but not a pure anytime adoption, which must not
		// restart the very solve that produced it), hand the background
		// optimizer the fresh problem.
		if c.anyDirty {
			c.anyDirty = false
			c.pushAnytime()
		}
	}
}

// collectBatch is self-clocked batching: it takes the first
// submission and drains whatever else is already queued (up to
// MaxBatch) without waiting. Arrivals during the step that follows form
// the next batch, so an idle service plans every arrival at once and a
// busy one grows its batches by itself — the leader-led group commit
// internal/wal uses for fsyncs.
func (c *Core) collectBatch(first *submission) []*submission {
	batch := []*submission{first}
	for len(batch) < c.cfg.MaxBatch {
		select {
		case sub := <-c.submitCh:
			batch = append(batch, sub)
		default:
			return batch
		}
	}
	return batch
}

// nextEventTime returns the earliest pending virtual event: a running
// job's completion or a planned start.
func (c *Core) nextEventTime() (int64, bool) {
	var t int64
	found := false
	for _, r := range c.running {
		end := r.start + r.job.Runtime
		if !found || end < t {
			t, found = end, true
		}
	}
	for id, start := range c.plan {
		if _, ok := c.waiting[id]; !ok {
			continue
		}
		if !found || start < t {
			t, found = start, true
		}
	}
	return t, found
}

// advance catches the writer state up with the clock: it processes all
// due completions and planned starts in event order, replanning (with
// the active policy, no self-tuning — the paper tunes only at
// submissions) after completions so early finishers pull work forward.
func (c *Core) advance() {
	now := c.clock.Now()
	if now < c.vnow {
		now = c.vnow
	}
	for {
		t, ok := c.nextEventTime()
		if !ok || t > now {
			break
		}
		if t > c.vnow {
			c.vnow = t
		}
		if c.completeDue(t) {
			if len(c.waiting) > 0 {
				c.replan(t)
			}
		}
		c.startDue(t)
	}
	if now > c.vnow {
		c.vnow = now
	}
}

// completeDue finishes every running job whose end is <= t.
func (c *Core) completeDue(t int64) bool {
	var ids []int
	for id, r := range c.running {
		if r.start+r.job.Runtime <= t {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		r := c.running[id]
		delete(c.running, id)
		end := r.start + r.job.Runtime
		c.counts.Completed++
		c.cEnds.Inc()
		st := JobStatus{
			ID: id, State: StateDone, Width: r.job.Width, Estimate: r.job.Estimate,
			Submit: r.job.Submit, PlannedStart: r.plannedStart, Start: r.start, End: end,
			PlanLatencyMs: float64(r.planLatency) / float64(time.Millisecond),
			Degraded:      r.degraded,
			Deadline:      r.deadline,
			SLOMiss:       r.sloMiss,
			TraceID:       r.trace,
		}
		c.done.Store(id, st)
		c.walAppend(walComplete, completeWAL{Status: st})
		c.emitCompleted(st)
		fields := []obs.Field{
			obs.Int("t", end),
			obs.Int("job", int64(id)),
			obs.Int("response", end-r.job.Submit),
		}
		if r.trace != "" {
			fields = append(fields, obs.Str("trace", r.trace))
		}
		c.trace.Emit("schedd.end", fields...)
	}
	if len(ids) > 0 {
		c.anyDirty = true
	}
	return len(ids) > 0
}

// startDue starts every waiting job whose planned start is <= t, in
// (planned start, ID) order.
func (c *Core) startDue(t int64) {
	var due []int
	for id, start := range c.plan {
		if start <= t {
			if _, ok := c.waiting[id]; ok {
				due = append(due, id)
			}
		}
	}
	sort.Slice(due, func(i, k int) bool {
		if c.plan[due[i]] != c.plan[due[k]] {
			return c.plan[due[i]] < c.plan[due[k]]
		}
		return due[i] < due[k]
	})
	for _, id := range due {
		r := c.recs[id]
		delete(c.waiting, id)
		delete(c.plan, id)
		delete(c.recs, id)
		r.start = t
		c.running[id] = r
		c.counts.Started++
		c.cStarts.Inc()
		c.walAppend(walStart, startWAL{ID: id, T: t})
		fields := []obs.Field{
			obs.Int("t", t),
			obs.Int("job", int64(id)),
			obs.Int("width", int64(r.job.Width)),
			obs.Int("wait", t-r.job.Submit),
		}
		if r.trace != "" {
			fields = append(fields, obs.Str("trace", r.trace))
		}
		c.trace.Emit("schedd.start", fields...)
	}
	if len(due) > 0 {
		c.anyDirty = true
	}
}

// baseProfile builds the machine profile of the running jobs at time
// now with estimated ends (planning never sees actual runtimes).
func (c *Core) baseProfile(now int64) (*machine.Profile, error) {
	rs := make([]machine.Running, 0, len(c.running))
	for _, r := range c.running {
		end := r.start + r.job.Estimate
		if end <= now {
			// Overdue per its own estimate but not completed yet (can
			// happen when planning catches up after a busy stretch):
			// keep it occupying capacity for one more second.
			end = now + 1
		}
		rs = append(rs, machine.Running{JobID: r.job.ID, Width: r.job.Width, End: end})
	}
	h, err := machine.HistoryFromRunning(c.total, now, rs)
	if err != nil {
		return nil, err
	}
	return h.Profile(c.total), nil
}

func (c *Core) waitingSlice() []*job.Job {
	out := make([]*job.Job, 0, len(c.waiting))
	for _, j := range c.waiting {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// step runs one self-tuning step over the batch of new arrivals plus
// everything already waiting, optionally through the ILP pipeline, and
// adopts the resulting plan. A step that cannot produce any schedule
// keeps the previous plan and reports degradation — a serving process
// never dies on a bad step.
func (c *Core) step(batch []*submission) {
	wallStart := time.Now()
	c.anyDirty = true
	now := c.clock.Now()
	if now < c.vnow {
		now = c.vnow
	}
	c.vnow = now
	for _, sub := range batch {
		// Trace-replay admissions may carry virtual submit times the
		// accelerated clock has already passed; planning requires
		// Submit <= now.
		if sub.job.Submit > now {
			sub.job.Submit = now
		}
		c.waiting[sub.job.ID] = sub.job
		c.recs[sub.job.ID] = &rec{job: sub.job, admitWall: sub.admitWall, trace: sub.trace, plannedStart: -1, start: -1, deadline: sub.deadline}
		// The writer owns the submission now: its WAL record is covered
		// by this state, so it no longer holds back snapshot bounds.
		c.inflightDone(sub.walSeq)
	}
	// Admissions count when the writer takes them in, so a published
	// snapshot never reports fewer submitted than planned jobs, nor a
	// submission that was turned away with a full queue.
	c.accepted.Add(int64(len(batch)))
	c.counts.Batches++
	c.counts.BatchedJobs += int64(len(batch))
	c.cBatches.Inc()
	c.hBatchSize.Observe(float64(len(batch)))
	waiting := c.waitingSlice()
	c.hQueueDepth.Observe(float64(len(waiting)))

	c.stepSeq++
	tr := c.sampledTracer()
	record := ReplanRecord{Kind: "step", Now: now, Batch: len(batch), QueueDepth: len(waiting)}
	for _, sub := range batch {
		if sub.trace != "" && len(record.Traces) < maxRecordTraces {
			record.Traces = append(record.Traces, sub.trace)
		}
	}
	plannedBefore := len(c.newlyPlanned)
	defer func() {
		record.DurMs = float64(time.Since(wallStart)) / float64(time.Millisecond)
		record.Planned = len(c.newlyPlanned) - plannedBefore
		c.recordReplan(record)
	}()

	span := tr.StartSpan("schedd.step",
		obs.Int("t", now),
		obs.Int("batch", int64(len(batch))),
		obs.Int("queue_depth", int64(len(waiting))))
	for _, sub := range batch {
		// Per-job trace join: the batched event carries the request trace
		// ID and (when the step span is traced) the step's span id, tying
		// the request's trace to the shared replan span tree.
		if sub.trace != "" {
			c.trace.Emit("schedd.job.batched",
				obs.Int("t", now),
				obs.Int("job", int64(sub.job.ID)),
				obs.Str("trace", sub.trace))
		}
	}
	base, err := c.baseProfile(now)
	if err != nil {
		span.End(obs.Str("status", "error"))
		c.failStep(fmt.Sprintf("base profile: %v", err))
		record.Outcome, record.ReasonClass, record.Reason = "failed", "step_error", c.degReason
		return
	}
	res, err := c.cfg.Scheduler.Step(now, base, waiting)
	if err != nil {
		span.End(obs.Str("status", "error"))
		c.failStep(fmt.Sprintf("self-tuning step: %v", err))
		record.Outcome, record.ReasonClass, record.Reason = "failed", "step_error", c.degReason
		return
	}
	record.Policy = res.Chosen.Name()
	adopt := res.Schedule
	degraded := false
	reasonClass, reason := "", ""
	if c.cfg.ILP != nil {
		// A single traced submission in the batch threads its trace ID
		// down to the MIP solve span; multi-job batches share one solve,
		// so no single trace can own it.
		ctx := context.Background()
		if len(record.Traces) == 1 && record.Batch == 1 {
			ctx = obs.WithTraceID(ctx, record.Traces[0])
		}
		var out *solvepipe.Outcome
		adopt, degraded, reasonClass, reason, out = c.ilpSchedule(ctx, tr, now, res, waiting, base)
		if out != nil {
			record.CacheHit = out.CacheHit
			record.SeedReused = out.IncumbentReused
			for _, a := range out.Attempts {
				record.Attempts = append(record.Attempts, AttemptRecord{
					Scale:    a.Scale,
					BudgetMs: a.Budget.Milliseconds(),
					DurMs:    float64(a.Elapsed) / float64(time.Millisecond),
					Failure:  a.Failure.String(),
				})
			}
		}
	}
	c.counts.Steps++
	c.cSteps.Inc()
	c.degraded, c.degReason = degraded, reason
	record.Outcome = "ok"
	if degraded {
		c.counts.DegradedSteps++
		c.cDegraded.Inc()
		record.Outcome = "degraded"
		record.ReasonClass, record.Reason = reasonClass, reason
	}
	c.adoptPlan(now, adopt, degraded)
	c.appendPlanWAL("step", now, len(batch), degraded, reason, c.newlyPlanned[plannedBefore:])
	span.End(obs.Str("chosen", res.Chosen.Name()), obs.Bool("degraded", degraded))
}

// sampledTracer returns the tracer for the current replan's span tree,
// nil when this replan is sampled off (TraceSampleEvery). The caller
// must have advanced stepSeq first.
func (c *Core) sampledTracer() *obs.Tracer {
	if n := c.cfg.TraceSampleEvery; n > 1 && c.stepSeq%int64(n) != 0 {
		return nil
	}
	return c.trace
}

// recordReplan finishes one replan's bookkeeping: flight recorder,
// labeled outcome/duration metrics, and the slow-replan dump.
func (c *Core) recordReplan(r ReplanRecord) {
	r = c.recorder.add(r)
	c.hvReplanDur.With(r.Kind).Observe(r.DurMs)
	policy := r.Policy
	if policy == "" {
		policy = "none"
	}
	c.vStepOut.With(r.Outcome, policy).Inc()
	if r.ReasonClass != "" {
		c.vDegReason.With(r.ReasonClass).Inc()
	}
	if c.cfg.SlowReplan > 0 && r.DurMs >= float64(c.cfg.SlowReplan)/float64(time.Millisecond) {
		c.dumpSlowReplan(r)
	}
}

// dumpSlowReplan reconstructs the span tree of an offending replan on
// the always-on tracer from the flight recorder's provenance. This is
// how a slow replan becomes visible in the JSONL trace even when step
// tracing was sampled off: the live spans were never written, so the
// dump re-emits them (span dur_ms is the reconstruction time; the
// measured durations ride in replan_dur_ms/attempt_dur_ms).
func (c *Core) dumpSlowReplan(r ReplanRecord) {
	sp := c.trace.StartSpan("schedd.replan.slow",
		obs.Int("replan_seq", r.Seq),
		obs.Str("kind", r.Kind),
		obs.Int("t", r.Now),
		obs.Float("replan_dur_ms", r.DurMs),
		obs.Int("batch", int64(r.Batch)),
		obs.Int("queue_depth", int64(r.QueueDepth)),
		obs.Str("outcome", r.Outcome),
		obs.Str("policy", r.Policy))
	for i, a := range r.Attempts {
		att := c.trace.StartSpan("schedd.replan.slow.attempt",
			obs.Int("rung", int64(i)),
			obs.Int("scale", a.Scale),
			obs.Int("budget_ms", a.BudgetMs))
		att.End(obs.Float("attempt_dur_ms", a.DurMs), obs.Str("failure", a.Failure))
	}
	sp.End(
		obs.Str("reason", r.Reason),
		obs.Bool("cache_hit", r.CacheHit),
		obs.Bool("seed_reused", r.SeedReused))
}

// failStep records a step that produced no schedule at all: the
// previous plan stays in force and the batch's jobs remain waiting for
// the next step (they are in c.waiting, so any later submission or
// completion replans them in).
func (c *Core) failStep(reason string) {
	c.counts.Steps++
	c.counts.DegradedSteps++
	c.cSteps.Inc()
	c.cDegraded.Inc()
	c.degraded, c.degReason = true, reason
	c.appendFailedStepWAL(reason)
	c.trace.Emit("schedd.step.failed", obs.Int("t", c.vnow), obs.Str("reason", reason))
}

// ilpSchedule drives one step through the step engine, always
// degrading to the basic-policy schedule on failure. It returns the
// schedule to adopt, the degradation flag, the bounded-cardinality
// reason class plus free-form detail, and the pipeline outcome (nil
// when the step never reached the pipeline). A trace ID in ctx rides
// down into the MIP solve spans; tr is the (possibly sampled-off)
// tracer for solver-internal events.
func (c *Core) ilpSchedule(ctx context.Context, tr *obs.Tracer, now int64, res *dynp.StepResult, waiting []*job.Job, base *machine.Profile) (*schedule.Schedule, bool, string, string, *solvepipe.Outcome) {
	sch, out, kind, err := c.stepper.Step(ctx, tr, now, base, waiting, res)
	switch {
	case errors.Is(err, solvepipe.ErrInvalidSchedule):
		return sch, true, "invalid_schedule", err.Error(), out
	case err != nil:
		class := kind.String()
		return sch, true, class, fmt.Sprintf("%s: %v (%d attempts)", class, err, len(out.Attempts)), out
	case out == nil:
		return sch, false, "", "", nil // every waiting job starts now
	}
	// SLO guard: the solver minimizes the aggregate objective with no
	// notion of per-job deadlines, so its reordering may push an
	// admitted job past the deadline the twin admitted it under. When
	// the basic-policy schedule keeps every deadline and the ILP one
	// does not, serve the policy schedule — a kept SLO beats a better
	// Eq. 2 objective. (Both busting is still adopted and latched
	// honestly as a miss.)
	if n := c.sloConflicts(sch); n > 0 && c.sloConflicts(res.Schedule) == 0 {
		c.cSLOGuard.Inc()
		tr.Emit("step.slo_guard",
			obs.Int("t", now), obs.Int("conflicts", int64(n)))
		return res.Schedule, false, "", "", out
	}
	return sch, false, "", "", out
}

// replan rebuilds the plan with the active policy after completions.
func (c *Core) replan(now int64) {
	wallStart := time.Now()
	c.anyDirty = true
	c.stepSeq++
	tr := c.sampledTracer()
	record := ReplanRecord{
		Kind: "completion", Now: now, QueueDepth: len(c.waiting),
		Policy: c.cfg.Scheduler.Current().Name(),
	}
	plannedBefore := len(c.newlyPlanned)
	defer func() {
		record.DurMs = float64(time.Since(wallStart)) / float64(time.Millisecond)
		record.Planned = len(c.newlyPlanned) - plannedBefore
		c.recordReplan(record)
	}()
	base, err := c.baseProfile(now)
	if err != nil {
		c.trace.Emit("schedd.replan.failed", obs.Int("t", now), obs.Str("reason", err.Error()))
		record.Outcome, record.ReasonClass, record.Reason = "failed", "step_error", err.Error()
		return // keep the previous plan
	}
	sch, err := c.cfg.Scheduler.Reschedule(now, base, c.waitingSlice())
	if err != nil {
		c.trace.Emit("schedd.replan.failed", obs.Int("t", now), obs.Str("reason", err.Error()))
		record.Outcome, record.ReasonClass, record.Reason = "failed", "step_error", err.Error()
		return
	}
	c.counts.Replans++
	c.cReplans.Inc()
	tr.Emit("schedd.replan",
		obs.Int("t", now),
		obs.Int("queue_depth", int64(len(c.waiting))))
	record.Outcome = "ok"
	c.adoptPlan(now, sch, c.degraded)
	c.appendPlanWAL("completion", now, 0, c.degraded, c.degReason, c.newlyPlanned[plannedBefore:])
}

// adoptPlan installs a full schedule: it records planned starts,
// completes the submit-to-plan latency of first-planned jobs, and
// starts jobs planned for now.
func (c *Core) adoptPlan(now int64, sch *schedule.Schedule, degraded bool) {
	c.lastPlanWall.Store(time.Now().UnixNano())
	c.plan = make(map[int]int64, len(sch.Entries))
	for _, e := range sch.Entries {
		c.plan[e.Job.ID] = e.Start
		r, ok := c.recs[e.Job.ID]
		if !ok {
			continue
		}
		r.plannedStart = e.Start
		r.degraded = degraded
		if r.deadline > 0 && e.Start > r.deadline && !r.sloMiss {
			// Latched: the SLO was violated by an adopted plan, even if a
			// later improvement pulls the start back under the deadline.
			r.sloMiss = true
			c.cSLOMiss.Inc()
			c.trace.Emit("schedd.slo.miss",
				obs.Int("t", now),
				obs.Int("job", int64(e.Job.ID)),
				obs.Int("planned_start", e.Start),
				obs.Int("deadline", r.deadline))
		}
		if !r.planned {
			r.planned = true
			r.planLatency = time.Since(r.admitWall)
			c.counts.Planned++
			c.cPlanned.Inc()
			c.hPlanLatency.Observe(float64(r.planLatency) / float64(time.Millisecond))
			c.winPlanLat.Observe(float64(r.planLatency) / float64(time.Millisecond))
			c.newlyPlanned = append(c.newlyPlanned, e.Job.ID)
			if r.trace != "" {
				c.trace.Emit("schedd.job.planned",
					obs.Int("t", now),
					obs.Int("job", int64(e.Job.ID)),
					obs.Int("planned_start", e.Start),
					obs.Float("plan_latency_ms", float64(r.planLatency)/float64(time.Millisecond)),
					obs.Bool("degraded", degraded),
					obs.Str("trace", r.trace))
			}
		}
	}
	c.startDue(now)
}

// finalDrain plans every submission still in the queue so that no
// accepted job is dropped, then emits the drain event.
func (c *Core) finalDrain() {
	var batch []*submission
	for {
		select {
		case sub := <-c.submitCh:
			batch = append(batch, sub)
		default:
			c.advance()
			if len(batch) > 0 || c.hasUnplannedWaiting() {
				c.step(batch)
			}
			c.trace.Emit("schedd.drain",
				obs.Int("t", c.vnow),
				obs.Int("flushed", int64(len(batch))),
				obs.Int("waiting", int64(len(c.waiting))),
				obs.Int("running", int64(len(c.running))))
			return
		}
	}
}

// hasUnplannedWaiting reports whether a failed step left admitted jobs
// without a plan entry (the drain path re-plans them so an accepted job
// is never dropped).
func (c *Core) hasUnplannedWaiting() bool {
	for id := range c.waiting {
		if !c.recs[id].planned {
			return true
		}
	}
	return false
}

// publish builds and installs a fresh immutable snapshot.
func (c *Core) publish() {
	c.version++
	s := &Snapshot{
		Now:            c.vnow,
		Version:        c.version,
		Active:         make(map[int]JobStatus, len(c.waiting)+len(c.running)),
		Degraded:       c.degraded,
		DegradedReason: c.degReason,
		Policy:         c.cfg.Scheduler.Current().Name(),
		Counts:         c.counts,
	}
	c.gate.RLock()
	s.Draining = c.draining
	c.gate.RUnlock()
	s.Counts.Submitted = c.accepted.Load() // admissions the writer has taken in
	for id, j := range c.waiting {
		r := c.recs[id]
		st := JobStatus{
			ID: id, State: StateQueued, Width: j.Width, Estimate: j.Estimate,
			Submit: j.Submit, PlannedStart: -1, Start: -1, End: -1, PlanLatencyMs: -1,
			TraceID: r.trace, Deadline: r.deadline, SLOMiss: r.sloMiss,
		}
		if r.planned {
			st.State = StateWaiting
			st.PlannedStart = r.plannedStart
			st.PlanLatencyMs = float64(r.planLatency) / float64(time.Millisecond)
			st.Degraded = r.degraded
		}
		s.Active[id] = st
		if start, ok := c.plan[id]; ok {
			s.Schedule = append(s.Schedule, PlannedEntry{JobID: id, Width: j.Width, Start: start, Estimate: j.Estimate})
		}
	}
	for id, r := range c.running {
		s.Active[id] = JobStatus{
			ID: id, State: StateRunning, Width: r.job.Width, Estimate: r.job.Estimate,
			Submit: r.job.Submit, PlannedStart: r.plannedStart, Start: r.start,
			End:           r.start + r.job.Runtime,
			PlanLatencyMs: float64(r.planLatency) / float64(time.Millisecond),
			Degraded:      r.degraded,
			Deadline:      r.deadline,
			SLOMiss:       r.sloMiss,
			TraceID:       r.trace,
		}
	}
	sort.Slice(s.Schedule, func(i, k int) bool {
		if s.Schedule[i].Start != s.Schedule[k].Start {
			return s.Schedule[i].Start < s.Schedule[k].Start
		}
		return s.Schedule[i].JobID < s.Schedule[k].JobID
	})
	c.snap.Store(s)
	c.emitPlanned(s, c.newlyPlanned)
	c.emitPublished(s)
	for _, id := range c.newlyPlanned {
		// Publication closes the traced submit→planned path: the first
		// snapshot carrying the job's plan is now visible to readers.
		if trace := c.traceOf(id); trace != "" {
			c.trace.Emit("schedd.job.published",
				obs.Int("t", c.vnow),
				obs.Int("job", int64(id)),
				obs.Int("version", s.Version),
				obs.Str("trace", trace))
		}
		c.pending.Delete(id)
	}
	c.newlyPlanned = c.newlyPlanned[:0]
}

// traceOf finds a job's trace ID wherever its record currently lives
// (waiting, running, or already completed).
func (c *Core) traceOf(id int) string {
	if r, ok := c.recs[id]; ok {
		return r.trace
	}
	if r, ok := c.running[id]; ok {
		return r.trace
	}
	if v, ok := c.done.Load(id); ok {
		return v.(JobStatus).TraceID
	}
	return ""
}
