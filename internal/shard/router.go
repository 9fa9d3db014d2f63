// Package shard is the scheduling daemon's serving path: a front-end
// Router partitions the machine into N per-shard sub-machines, each
// owned by an independent schedd.Core with its own replan loop, WAL
// namespace and token bucket, so submission throughput scales with
// cores instead of being capped by one writer loop. cmd/schedd always
// serves through a Router; at N = 1 its one shard owns the whole
// machine and the router adds only routing, merging and the SSE hub.
//
// The pieces:
//
//   - placement (placement.go): job-width-aware routing — wide jobs go
//     to the least-loaded shard that fits them, narrow jobs pack
//     greedily onto the busiest shard within a bounded load band, per
//     the stochastic bin-packing policy of Hong, Xie & Wang (2022);
//   - rebalancing (rebalance.go): queued (not-yet-planned) jobs migrate
//     off a shard whose submit-to-plan p99 diverges past a threshold,
//     per Casanova, Stillwell & Vivien's dynamic re-placement result;
//   - streaming reads (hub.go, http.go): an SSE hub fans each core's
//     snapshot publication out to subscribers, replacing the polling
//     read path, and GET /v1/schedule scatter-gathers shard snapshots
//     into one merged view without blocking any writer.
//
// Job IDs are globalized as global = local*N + shardIdx, so the owning
// shard of any ID is global % N with no lookup table. Idempotency-keyed
// submissions are pinned by key hash over the shards whose sub-machine
// fits the job's width — the same key always lands on the same shard
// regardless of load (and never on one that would reject its width),
// and the rebalancer never migrates keyed jobs, so dedup can never
// split a key across shards. The "mig:" key prefix is reserved for the
// migration protocol's synthetic keys and rejected from clients.
package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/schedd"
)

// CoreFactory builds the schedd configuration of one shard: scheduler,
// WAL (namespaced to the shard, WALDir(root, i)), clock, rate limits,
// observability. The router overrides Machine (the shard's sub-machine
// size) and ShardID before constructing the core, so factories must not
// rely on those fields, and it puts the SSE hub's sink in front of
// Events: a factory's own sink still receives every event, after the
// hub.
type CoreFactory func(shardIdx, machine int) (schedd.Config, error)

// Config parameterizes the router.
type Config struct {
	// Shards is the number of per-shard cores (required, >= 1).
	Shards int
	// Machine is the total processor count to partition (required).
	// Shard i owns Machine/Shards processors, the remainder spread
	// one-per-shard from shard 0.
	Machine int
	// WideLane, if > 0, sizes shard 0's sub-machine explicitly and
	// splits the remaining processors evenly across shards 1..N-1. An
	// even partition caps the servable width at Machine/Shards; a wide
	// lane keeps one shard big enough for the workload's widest jobs
	// (e.g. 256 of 430 for the CTC width distribution). It may not
	// exceed Machine, and with one shard it must be 0 or Machine.
	WideLane int
	// Factory builds each shard's core configuration (required).
	Factory CoreFactory
	// Metrics is the router-level registry (routing, rebalancing and SSE
	// instruments; nil disables them). Per-core registries are separate
	// — the factory supplies them — and are merged with a "shard" label
	// by MergedMetrics.
	Metrics *obs.Registry
	// Trace is the router's tracer (nil-safe).
	Trace *obs.Tracer
	// RebalanceP99 enables the rebalancer: when the submit-to-plan p99
	// of the slowest shard exceeds the fastest's by more than this many
	// milliseconds, queued jobs migrate from slowest to fastest. Zero
	// disables divergence migration (crash recovery hand-offs still
	// complete).
	RebalanceP99 float64
	// RebalanceInterval is the rebalancer's evaluation period (default
	// 200ms).
	RebalanceInterval time.Duration
	// MaxMigratePerRound caps how many queued jobs one rebalance round
	// moves (default 32).
	MaxMigratePerRound int
	// PackSlack is the placement load band: a narrow job packs onto the
	// busiest shard whose load score is within PackSlack of the least
	// loaded fitting shard (default 8). Zero packs only between equally
	// loaded shards.
	PackSlack int
	// GatherTimeout bounds the scatter-gather snapshot merge; a shard
	// that cannot produce its snapshot in time degrades the merge to
	// partial=true instead of blocking the reader (default 250ms).
	GatherTimeout time.Duration
	// SubscriberBuffer is the per-SSE-subscriber event buffer; a
	// subscriber that falls this far behind is disconnected rather than
	// allowed to backpressure the writer loops (default 1024).
	SubscriberBuffer int
}

// BackpressureError reports that every one of several candidate
// shards rejected a submission with backpressure (queue full, rate
// limited or an unmeetable deadline). RetryAfter is the maximum hint
// across the shards tried — retrying sooner would hit the most loaded
// shard again.
type BackpressureError struct {
	// RetryAfter is the largest Retry-After across the shards tried.
	RetryAfter time.Duration
	// Shards is how many shards were tried.
	Shards int
	// Cause is the last shard's rejection.
	Cause error
}

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("shard: all %d candidate shards backpressured (retry after %v): %v", e.Shards, e.RetryAfter, e.Cause)
}

func (e *BackpressureError) Unwrap() error { return e.Cause }

// Router is the daemon's front end at every shard count. Create with
// New, then Start; submit with Submit; stop with Stop.
type Router struct {
	cfg        Config
	n          int
	machines   []int // per-shard sub-machine sizes
	maxMachine int   // largest sub-machine: the servable width bound
	cores      []*schedd.Core
	hub        *Hub

	// fetchSnap is the per-shard snapshot fetch used by Gather — a test
	// seam so merge tests can stall one shard.
	fetchSnap []func() *schedd.Snapshot

	// aliases maps an old global ID to its new global ID after a
	// migration (append-only; chains are followed on lookup). inflight
	// holds the queued status of jobs mid-migration so lookups never 404
	// between steal and target admission.
	aliases  sync.Map // int -> int
	inflight sync.Map // int -> schedd.JobStatus

	stopCh   chan struct{}
	stopOnce sync.Once
	stopped  sync.Once
	wg       sync.WaitGroup
	final    *MergedSnapshot
	stopErr  error

	trace       *obs.Tracer
	vRouted     *obs.CounterVec // by shard
	cWide       *obs.Counter
	cNarrow     *obs.Counter
	cFanRetries *obs.Counter
	cBackpress  *obs.Counter
	cRebalances *obs.Counter
	cMigrated   *obs.Counter
	cMigRetries *obs.Counter
	cPartials   *obs.Counter
}

// New validates the configuration, partitions the machine and builds
// the per-shard cores (stopped; Start launches them).
func New(cfg Config) (*Router, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", cfg.Shards)
	}
	if cfg.Machine < cfg.Shards {
		return nil, fmt.Errorf("shard: machine size %d < %d shards (every shard needs >= 1 processor)", cfg.Machine, cfg.Shards)
	}
	if cfg.Factory == nil {
		return nil, errors.New("shard: nil core factory")
	}
	if cfg.RebalanceInterval <= 0 {
		cfg.RebalanceInterval = 200 * time.Millisecond
	}
	if cfg.MaxMigratePerRound < 1 {
		cfg.MaxMigratePerRound = 32
	}
	if cfg.PackSlack < 0 {
		cfg.PackSlack = 0
	}
	if cfg.GatherTimeout <= 0 {
		cfg.GatherTimeout = 250 * time.Millisecond
	}
	if cfg.SubscriberBuffer < 1 {
		cfg.SubscriberBuffer = 1024
	}
	r := &Router{
		cfg:    cfg,
		n:      cfg.Shards,
		stopCh: make(chan struct{}),
		trace:  cfg.Trace,
	}
	r.hub = newHub(cfg.Shards, cfg.SubscriberBuffer, cfg.Metrics)
	if reg := cfg.Metrics; reg != nil {
		r.vRouted = reg.CounterVec("shard.routed", "shard")
		r.cWide = reg.Counter("shard.routed.wide")
		r.cNarrow = reg.Counter("shard.routed.narrow")
		r.cFanRetries = reg.Counter("shard.submit.fanout_retries")
		r.cBackpress = reg.Counter("shard.submit.backpressured")
		r.cRebalances = reg.Counter("shard.rebalances")
		r.cMigrated = reg.Counter("shard.jobs.migrated")
		r.cMigRetries = reg.Counter("shard.migrations.retried")
		r.cPartials = reg.Counter("shard.gather.partials")
	}
	// Partition: an even Machine/N split (remainder one-per-shard from
	// shard 0), or an explicit wide lane for shard 0 with the rest split
	// evenly.
	// A single shard owns the whole machine, so the only wide lane it
	// can take is the machine itself.
	if cfg.WideLane > cfg.Machine {
		return nil, fmt.Errorf("shard: wide lane %d exceeds the %d-processor machine", cfg.WideLane, cfg.Machine)
	}
	if cfg.Shards == 1 && cfg.WideLane > 0 && cfg.WideLane < cfg.Machine {
		return nil, fmt.Errorf("shard: wide lane %d on 1 shard would strand %d of %d processors (a wide lane needs 2 or more shards)",
			cfg.WideLane, cfg.Machine-cfg.WideLane, cfg.Machine)
	}
	r.machines = make([]int, cfg.Shards)
	if cfg.WideLane > 0 && cfg.Shards > 1 {
		rest := cfg.Machine - cfg.WideLane
		if rest < cfg.Shards-1 {
			return nil, fmt.Errorf("shard: wide lane %d leaves %d processors for %d shards", cfg.WideLane, rest, cfg.Shards-1)
		}
		r.machines[0] = cfg.WideLane
		base, rem := rest/(cfg.Shards-1), rest%(cfg.Shards-1)
		for i := 1; i < cfg.Shards; i++ {
			r.machines[i] = base
			if i-1 < rem {
				r.machines[i]++
			}
		}
	} else {
		base, rem := cfg.Machine/cfg.Shards, cfg.Machine%cfg.Shards
		for i := 0; i < cfg.Shards; i++ {
			r.machines[i] = base
			if i < rem {
				r.machines[i]++
			}
		}
	}
	for _, m := range r.machines {
		if m > r.maxMachine {
			r.maxMachine = m
		}
	}
	r.cores = make([]*schedd.Core, cfg.Shards)
	r.fetchSnap = make([]func() *schedd.Snapshot, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		m := r.machines[i]
		ccfg, err := cfg.Factory(i, m)
		if err != nil {
			return nil, fmt.Errorf("shard %d: factory: %w", i, err)
		}
		ccfg.Machine = m
		ccfg.ShardID = i
		sink := r.hub.sink(i)
		sink.next = ccfg.Events
		ccfg.Events = sink
		core, err := schedd.New(ccfg)
		if err != nil {
			return nil, fmt.Errorf("shard %d: core: %w", i, err)
		}
		r.cores[i] = core
		c := core
		r.fetchSnap[i] = func() *schedd.Snapshot { return c.Snapshot() }
	}
	return r, nil
}

// Start launches every core's writer loop and the background
// maintenance loop (recovery hand-off completion + rebalancing).
func (r *Router) Start() {
	for _, c := range r.cores {
		c.Start()
	}
	r.wg.Add(1)
	go r.maintain()
}

// Shards returns the shard count.
func (r *Router) Shards() int { return r.n }

// Machines returns the per-shard sub-machine sizes.
func (r *Router) Machines() []int { return append([]int(nil), r.machines...) }

// Core returns shard i's core (tests and the daemon's drain path).
func (r *Router) Core(i int) *schedd.Core { return r.cores[i] }

// Hub returns the SSE event hub.
func (r *Router) Hub() *Hub { return r.hub }

// global encodes a shard-local job ID: IDs interleave across shards so
// the owner is recoverable by modulus alone.
func (r *Router) global(shardIdx, local int) int { return local*r.n + shardIdx }

// locate decodes a global job ID into (shard, local). ok is false for
// IDs no shard can have minted (local IDs start at 1).
func (r *Router) locate(gid int) (shardIdx, local int, ok bool) {
	if gid < r.n {
		return 0, 0, false
	}
	return gid % r.n, gid / r.n, true
}

// keyShard pins an idempotency key to a shard by hash, independent of
// load, so resubmissions always meet the original admission's dedup
// entry. The hash maps over only the shards whose sub-machine fits the
// job's width, in index order — with a wide lane (machines [256 58 58
// 58]), a keyed 100-wide job pins to the wide lane instead of to a
// narrow shard that would 400 it forever. The fitting set depends only
// on the static partition and the width, so the pin is deterministic;
// as with every other request field, the idempotency contract requires
// a resubmission to repeat the original width. The caller has already
// validated width <= maxMachine, so the set is never empty.
func (r *Router) keyShard(key string, width int) int {
	fit := make([]int, 0, r.n)
	for i, m := range r.machines {
		if width <= m {
			fit = append(fit, i)
		}
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return fit[int(h.Sum32()%uint32(len(fit)))]
}

// Submit routes one submission. Keyed submissions go to hash(key)'s
// shard only, among the shards that fit the width (routing stability
// beats load). Unkeyed submissions try candidate shards in placement
// order; backpressure (429) from one shard falls through to the next,
// and if every candidate backpressures the error carries the maximum
// Retry-After seen.
func (r *Router) Submit(ctx context.Context, req schedd.SubmitRequest) (schedd.SubmitResponse, error) {
	if req.Width < 1 || req.Width > r.maxMachine {
		return schedd.SubmitResponse{}, &schedd.ValidationError{
			Reason: fmt.Sprintf("width %d outside [1, %d] (largest shard of %d)", req.Width, r.maxMachine, r.n),
		}
	}
	if key := req.IdempotencyKey; key != "" {
		if strings.HasPrefix(key, schedd.MigrationKeyPrefix) {
			// The migration protocol's synthetic namespace: a client key
			// in it could dedup against a migrated job at the target.
			return schedd.SubmitResponse{}, &schedd.ValidationError{
				Reason: fmt.Sprintf("idempotency key prefix %q is reserved for internal migrations", schedd.MigrationKeyPrefix),
			}
		}
		return r.submitShard(ctx, r.keyShard(key, req.Width), req)
	}
	cands, wide := r.placeOrder(req.Width)
	if wide {
		r.cWide.Inc()
	} else {
		r.cNarrow.Inc()
	}
	var maxRetry time.Duration
	var lastErr error
	tried := 0
	for _, idx := range cands {
		resp, err := r.submitShard(ctx, idx, req)
		if err == nil {
			if tried > 0 {
				r.cFanRetries.Add(int64(tried))
			}
			return resp, nil
		}
		ra, backpressure := retryAfterOf(err)
		if !backpressure {
			return resp, err
		}
		tried++
		lastErr = err
		if ra > maxRetry {
			maxRetry = ra
		}
	}
	r.cBackpress.Inc()
	if tried == 1 {
		// One candidate (always, on a 1-shard router): its own
		// rejection and Retry-After already say everything.
		return schedd.SubmitResponse{}, lastErr
	}
	return schedd.SubmitResponse{}, &BackpressureError{RetryAfter: maxRetry, Shards: tried, Cause: lastErr}
}

// submitShard submits to one core and globalizes the response ID.
func (r *Router) submitShard(ctx context.Context, idx int, req schedd.SubmitRequest) (schedd.SubmitResponse, error) {
	resp, err := r.cores[idx].SubmitCtx(ctx, req)
	if err != nil {
		return resp, err
	}
	resp.ID = r.global(idx, resp.ID)
	resp.Shard = idx
	r.vRouted.With(shardLabel(idx)).Inc()
	return resp, nil
}

// retryAfterOf classifies a shard rejection as backpressure worth
// fanning out over, and extracts its Retry-After hint. Queue-full
// carries the HTTP layer's 1s constant; rate limiting carries the
// bucket's own wait; an SLO-deadline rejection is one shard's twin
// predicting a late start — a less loaded shard may still make the
// deadline, so it fans out too.
func retryAfterOf(err error) (time.Duration, bool) {
	var rl *schedd.RateLimitedError
	if errors.As(err, &rl) {
		return rl.RetryAfter, true
	}
	var se *schedd.SLOExceededError
	if errors.As(err, &se) {
		return se.RetryAfter, true
	}
	if errors.Is(err, schedd.ErrQueueFull) {
		return time.Second, true
	}
	return 0, false
}

// Job resolves a global job ID: migration aliases are followed to the
// job's current home, then the owning core is consulted, then the
// in-flight migration set (a job between steal and target admission is
// still queued, just briefly homeless).
func (r *Router) Job(gid int) (schedd.JobStatus, bool) {
	cur := gid
	for hops := 0; hops < 8; hops++ {
		v, ok := r.aliases.Load(cur)
		if !ok {
			break
		}
		cur = v.(int)
	}
	if idx, local, ok := r.locate(cur); ok {
		if st, ok := r.cores[idx].Job(local); ok {
			st.ID = cur
			st.Shard = idx
			return st, true
		}
	}
	if v, ok := r.inflight.Load(cur); ok {
		return v.(schedd.JobStatus), true
	}
	// The original ID may still be mid-migration even when an alias
	// exists but the target has not published the job yet.
	if cur != gid {
		if v, ok := r.inflight.Load(gid); ok {
			return v.(schedd.JobStatus), true
		}
	}
	return schedd.JobStatus{}, false
}

// Stop drains the fabric: the maintenance loop halts first (no
// migration races a drain), then every core drains concurrently, and
// the final snapshots merge into one view. Safe to call more than once.
func (r *Router) Stop(ctx context.Context) (*MergedSnapshot, error) {
	r.stopOnce.Do(func() { close(r.stopCh) })
	r.stopped.Do(func() {
		r.wg.Wait()
		finals := make([]*schedd.Snapshot, r.n)
		errs := make([]error, r.n)
		var wg sync.WaitGroup
		for i := range r.cores {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				finals[i], errs[i] = r.cores[i].Stop(ctx)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil && r.stopErr == nil {
				r.stopErr = fmt.Errorf("shard %d: %w", i, err)
			}
		}
		r.final = r.merge(finals, nil)
	})
	return r.final, r.stopErr
}

// maintain is the router's background loop: it waits for every core to
// finish WAL replay, rebuilds the alias table and completes interrupted
// migration hand-offs, then evaluates the rebalance signal every
// interval.
func (r *Router) maintain() {
	defer r.wg.Done()
	if !r.waitReady() {
		return
	}
	// Rebuild global aliases from each core's confirmed migrations, then
	// re-drive every unconfirmed hand-off against its recorded target.
	for i, c := range r.cores {
		for local, target := range c.MigrationAliases() {
			r.aliases.Store(r.global(i, local), int(target))
		}
	}
	r.completeAllPending()
	ticker := time.NewTicker(r.cfg.RebalanceInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case <-ticker.C:
			r.completeAllPending()
			if r.cfg.RebalanceP99 > 0 {
				r.RebalanceOnce()
			}
		}
	}
}

// waitReady blocks until every core reports PhaseReady (WAL replay
// finished); false when the router stops first.
func (r *Router) waitReady() bool {
	for _, c := range r.cores {
		for c.Phase() != schedd.PhaseReady {
			select {
			case <-r.stopCh:
				return false
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	return true
}

// shardLabel renders a shard index as a metric label value.
func shardLabel(i int) string {
	return fmt.Sprintf("%d", i)
}
