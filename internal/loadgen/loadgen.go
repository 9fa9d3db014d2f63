// Package loadgen is the open-loop workload driver of the scheduling
// service (internal/schedd): it replays a job trace against the HTTP
// API at a configurable acceleration factor — submission i fires at
// wall time (submit_i - submit_0) / Accel after the start, regardless
// of how fast the service answers, which is what makes the load open
// loop — and measures what serving actually feels like: submit HTTP
// round-trip latency, server-side submit-to-plan latency percentiles,
// throughput, 429 backpressure counts, and the replan/batch totals
// scraped from /v1/metrics.
//
// Traces come from internal/swf (real or ctcgen-written files) or
// internal/workload (synthetic CTC-like Poisson arrivals), so the same
// driver exercises live-shaped traffic and accelerated archive replay.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/schedd"
)

// Config parameterizes a load-generation run.
type Config struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Targets, when non-empty, overrides BaseURL with a round-robin set
	// of service roots: submission i fires at Targets[i mod len], each
	// job's status is fetched back from the target that admitted it, and
	// the scraped planning totals sum across targets. Point it at
	// several independent daemons to compare them under one arrival
	// process; a multi-shard daemon needs only its one URL (the router
	// merges the per-shard series server-side). Duplicate-ID detection
	// is per-target — independent daemons mint overlapping IDs.
	Targets []string
	// Trace supplies the arrival process: submission times (compressed
	// by Accel), widths, estimates and runtimes.
	Trace *job.Trace
	// Accel compresses trace time: a gap of Accel virtual seconds
	// between submissions becomes one wall second (default 1000).
	Accel float64
	// Sources is the number of distinct source labels assigned
	// round-robin, exercising per-source rate limiting (default 4).
	Sources int
	// Client is the HTTP client (default: http.Client with a 10s
	// timeout and a transport sized for the fan-out).
	Client *http.Client
	// WaitTimeout bounds the post-submission wait for every accepted
	// job to be planned (default 60s).
	WaitTimeout time.Duration
	// StatusWorkers fetches per-job statuses at the end (default 8).
	StatusWorkers int
	// IdempotencyPrefix, when non-empty, attaches a deterministic
	// Idempotency-Key header ("<prefix>-<i>") to submission i. Rerunning
	// the same trace with the same prefix against a recovered daemon is
	// the crash-resume drill: every job that survived the crash answers
	// as a dedup hit with its original ID instead of being admitted
	// twice, and the Result's Deduplicated/NewlyAccepted split plus
	// DuplicateIDs make the zero-duplicates assertion directly checkable.
	IdempotencyPrefix string
	// SLODeadlineS, when > 0, attaches this start-SLO deadline (virtual
	// seconds) to every submission, exercising the digital-twin
	// admission: jobs whose predicted start busts the deadline are
	// rejected up front (counted in RejectedSLO).
	SLODeadlineS int64
}

// Percentiles summarizes a latency distribution in milliseconds.
type Percentiles struct {
	P50 float64 `json:"p50_ms"`
	P90 float64 `json:"p90_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

// percentiles summarizes a sample set through the obs histogram
// estimator (the same Quantile the live instruments use): every
// distinct sample value becomes a bucket edge, so the estimate tracks
// the empirical distribution to within interpolation error. Max is
// taken from the samples directly and stays exact.
func percentiles(samples []float64) Percentiles {
	if len(samples) == 0 {
		return Percentiles{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	bounds := make([]float64, 0, len(s))
	for _, v := range s {
		if len(bounds) == 0 || v > bounds[len(bounds)-1] {
			bounds = append(bounds, v)
		}
	}
	h := obs.NewHistogram(bounds)
	for _, v := range s {
		h.Observe(v)
	}
	return Percentiles{
		P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
		Max: s[len(s)-1],
	}
}

// Result is the outcome of a run.
type Result struct {
	// Submitted is the number of submissions fired; Accepted of them
	// were admitted (202), Rejected429 hit backpressure (queue full or
	// rate limit), RejectedOther covers every other HTTP rejection and
	// TransportErrors failed before an HTTP status was received.
	Submitted       int `json:"submitted"`
	Accepted        int `json:"accepted"`
	Rejected429     int `json:"rejected_429"`
	RejectedOther   int `json:"rejected_other"`
	TransportErrors int `json:"transport_errors"`
	// RejectedSLO is the subset of Rejected429 whose body carried the
	// digital twin's deadline-aware reason (predicted start past the
	// submission's SLO deadline).
	RejectedSLO int `json:"rejected_slo,omitempty"`
	// Deduplicated counts accepted responses that were idempotency-key
	// dedup hits (the server returned an existing job instead of
	// admitting a new one); NewlyAccepted = Accepted - Deduplicated.
	// DuplicateIDs counts accepted responses whose job ID was already
	// returned to a different submission of this run — with distinct
	// keys it must be zero, and nonzero means the service double-admitted.
	Deduplicated  int `json:"deduplicated"`
	NewlyAccepted int `json:"newly_accepted"`
	DuplicateIDs  int `json:"duplicate_ids"`
	// WallSeconds is the submission phase duration; ThroughputRPS is
	// Submitted / WallSeconds. TotalSeconds additionally covers the wait
	// for every accepted job to be planned, and EndToEndRPS is
	// NewlyAccepted / TotalSeconds — the service-side serving throughput
	// once the replay itself stops being the bottleneck (high Accel).
	WallSeconds   float64 `json:"wall_seconds"`
	ThroughputRPS float64 `json:"throughput_rps"`
	TotalSeconds  float64 `json:"total_seconds"`
	EndToEndRPS   float64 `json:"end_to_end_rps"`
	// SubmitLatency is the client-observed HTTP round trip of accepted
	// submissions; PlanLatency is the server-recorded admission-to-plan
	// latency of the same jobs.
	SubmitLatency Percentiles `json:"submit_latency"`
	PlanLatency   Percentiles `json:"plan_latency"`
	// PlanLatencyByShard breaks PlanLatency down by the shard that
	// planned each job (keyed "shard-<i>"; multi-target runs prefix the
	// target index). Empty unless the run spanned more than one group,
	// so 1-shard results keep their shape.
	PlanLatencyByShard map[string]Percentiles `json:"plan_latency_by_shard,omitempty"`
	// Planned (from /v1/metrics) must cover every newly accepted job:
	// DroppedAccepted = NewlyAccepted - Planned is the service's
	// data-loss count and should always be zero. Dedup hits are excluded
	// because they were planned by a previous process incarnation, whose
	// registry counters (standard counter semantics) reset on restart.
	// MissingJobs counts accepted IDs the final status sweep could not
	// fetch back — the direct zero-lost check of the crash-resume drill.
	Planned         int64 `json:"planned"`
	DroppedAccepted int64 `json:"dropped_accepted"`
	MissingJobs     int   `json:"missing_jobs"`
	// Replan provenance scraped from /v1/metrics.
	Steps         int64 `json:"steps"`
	Replans       int64 `json:"replans"`
	Batches       int64 `json:"batches"`
	DegradedSteps int64 `json:"degraded_steps"`
	// ReplansPerSec is (Steps + Replans) / WallSeconds.
	ReplansPerSec float64 `json:"replans_per_sec"`
	// Anytime serving telemetry scraped from /v1/metrics:
	// AnytimeAdopted counts background-optimizer incumbents that
	// replaced the live plan; SLOMisses counts admitted jobs whose
	// adopted plan busted their start deadline (with SLODeadlineS and
	// the twin admission on, this should be zero). Solves/Found/Stale/
	// Rejected expose the optimizer's funnel — sessions run, incumbents
	// published, and the two drop reasons on the adoption path — and
	// SLOGuarded counts interval steps that served the policy schedule
	// because the ILP result would have busted an admitted deadline.
	AnytimeAdopted  int64 `json:"anytime_adopted,omitempty"`
	AnytimeSolves   int64 `json:"anytime_solves,omitempty"`
	AnytimeFound    int64 `json:"anytime_found,omitempty"`
	AnytimeStale    int64 `json:"anytime_stale,omitempty"`
	AnytimeRejected int64 `json:"anytime_rejected,omitempty"`
	SLOGuarded      int64 `json:"slo_guarded,omitempty"`
	SLOMisses       int64 `json:"slo_misses,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.Accel <= 0 {
		c.Accel = 1000
	}
	if c.Sources < 1 {
		c.Sources = 4
	}
	if c.WaitTimeout <= 0 {
		c.WaitTimeout = 60 * time.Second
	}
	if c.StatusWorkers < 1 {
		c.StatusWorkers = 8
	}
	if c.Client == nil {
		tr := &http.Transport{MaxIdleConns: 128, MaxIdleConnsPerHost: 128}
		c.Client = &http.Client{Timeout: 10 * time.Second, Transport: tr}
	}
	if len(c.Targets) == 0 && c.BaseURL != "" {
		c.Targets = []string{c.BaseURL}
	}
	return c
}

// Run replays the trace against the service. It returns once every
// accepted job is planned (or WaitTimeout expires) with the measured
// result; the error is non-nil only for setup-level failures (bad
// config, unreachable metrics endpoint), not per-request ones.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("loadgen: no BaseURL or Targets")
	}
	if cfg.Trace == nil || len(cfg.Trace.Jobs) == 0 {
		return nil, fmt.Errorf("loadgen: empty trace")
	}
	targets := cfg.Targets
	jobs := cfg.Trace.Jobs
	submit0 := jobs[0].Submit

	// acceptedRef remembers which target admitted a job so the status
	// sweep asks the right service (IDs are only unique per target).
	type acceptedRef struct{ target, id int }
	var (
		mu          sync.Mutex
		res         Result
		submitLatMs []float64
		accepted    []acceptedRef
		seenIDs     = make(map[acceptedRef]bool)
	)
	start := time.Now()
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j *job.Job) {
			defer wg.Done()
			due := start.Add(time.Duration(float64(j.Submit-submit0) / cfg.Accel * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				t := time.NewTimer(d)
				defer t.Stop()
				select {
				case <-t.C:
				case <-ctx.Done():
					return
				}
			}
			body, _ := json.Marshal(schedd.SubmitJSON{
				Width:    j.Width,
				Estimate: j.Estimate,
				Runtime:  j.Runtime,
				Source:   fmt.Sprintf("src-%d", i%cfg.Sources),
				Deadline: cfg.SLODeadlineS,
			})
			target := i % len(targets)
			t0 := time.Now()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost,
				targets[target]+"/v1/jobs", bytes.NewReader(body))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/json")
			if cfg.IdempotencyPrefix != "" {
				req.Header.Set(schedd.IdemHeader, fmt.Sprintf("%s-%d", cfg.IdempotencyPrefix, i))
			}
			resp, err := cfg.Client.Do(req)
			rtt := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			res.Submitted++
			if err != nil {
				res.TransportErrors++
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusAccepted:
				var sr schedd.SubmitResponse
				if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
					res.TransportErrors++
					return
				}
				res.Accepted++
				if sr.Deduplicated {
					res.Deduplicated++
				}
				ref := acceptedRef{target, sr.ID}
				if seenIDs[ref] {
					res.DuplicateIDs++
				}
				seenIDs[ref] = true
				accepted = append(accepted, ref)
				submitLatMs = append(submitLatMs, float64(rtt)/float64(time.Millisecond))
			case http.StatusTooManyRequests:
				res.Rejected429++
				// The twin's deadline rejections share the 429 status with
				// backpressure; the body's error string tells them apart.
				if b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)); bytes.Contains(b, []byte("slo_deadline")) {
					res.RejectedSLO++
				}
				io.Copy(io.Discard, resp.Body)
			default:
				res.RejectedOther++
				io.Copy(io.Discard, resp.Body)
			}
		}(i, j)
	}
	wg.Wait()
	res.WallSeconds = time.Since(start).Seconds()
	if res.WallSeconds > 0 {
		res.ThroughputRPS = float64(res.Submitted) / res.WallSeconds
	}
	res.NewlyAccepted = res.Accepted - res.Deduplicated
	res.SubmitLatency = percentiles(submitLatMs)

	// Wait until every target has planned every accepted job (totals sum
	// across targets; each daemon's router already serves the merged
	// rollup).
	deadline := time.Now().Add(cfg.WaitTimeout)
	for {
		res.Planned, res.Steps, res.Replans, res.Batches, res.DegradedSteps = 0, 0, 0, 0, 0
		res.AnytimeAdopted, res.SLOMisses = 0, 0
		res.AnytimeSolves, res.AnytimeFound, res.AnytimeStale, res.AnytimeRejected, res.SLOGuarded = 0, 0, 0, 0, 0
		for _, base := range targets {
			m, err := ScrapeMetrics(ctx, cfg.Client, base)
			if err != nil {
				return nil, fmt.Errorf("loadgen: metrics scrape: %w", err)
			}
			res.Planned += m["schedd.jobs.planned"]
			res.Steps += m["schedd.steps"]
			res.Replans += m["schedd.replans"]
			res.Batches += m["schedd.batches"]
			res.DegradedSteps += m["schedd.degraded.steps"]
			res.AnytimeAdopted += m["anytime.incumbents.adopted"]
			res.AnytimeSolves += m["anytime.solves"]
			res.AnytimeFound += m["anytime.incumbents.found"]
			res.AnytimeStale += m["anytime.incumbents.stale"]
			res.AnytimeRejected += m["anytime.incumbents.rejected"]
			res.SLOGuarded += m["schedd.steps.slo_guarded"]
			res.SLOMisses += m["schedd.slo.misses"]
		}
		if res.Planned >= int64(res.NewlyAccepted) || time.Now().After(deadline) || ctx.Err() != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	res.DroppedAccepted = int64(res.NewlyAccepted) - res.Planned
	if res.DroppedAccepted < 0 {
		res.DroppedAccepted = 0
	}
	if res.WallSeconds > 0 {
		res.ReplansPerSec = float64(res.Steps+res.Replans) / res.WallSeconds
	}
	res.TotalSeconds = time.Since(start).Seconds()
	if res.TotalSeconds > 0 {
		res.EndToEndRPS = float64(res.NewlyAccepted) / res.TotalSeconds
	}

	// Collect server-side plan latencies per accepted job, grouped by
	// the shard (and target, for multi-target runs) that planned it.
	planLat := make([]float64, 0, len(accepted))
	byShard := map[string][]float64{}
	refCh := make(chan acceptedRef, len(accepted))
	for _, ref := range accepted {
		refCh <- ref
	}
	close(refCh)
	var pwg sync.WaitGroup
	var pmu sync.Mutex
	for w := 0; w < cfg.StatusWorkers; w++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for ref := range refCh {
				st, err := FetchJob(ctx, cfg.Client, targets[ref.target], ref.id)
				if err != nil {
					pmu.Lock()
					res.MissingJobs++
					pmu.Unlock()
					continue
				}
				if st.PlanLatencyMs < 0 {
					continue
				}
				key := fmt.Sprintf("shard-%d", st.Shard)
				if len(targets) > 1 {
					key = fmt.Sprintf("target-%d.%s", ref.target, key)
				}
				pmu.Lock()
				planLat = append(planLat, st.PlanLatencyMs)
				byShard[key] = append(byShard[key], st.PlanLatencyMs)
				pmu.Unlock()
			}
		}()
	}
	pwg.Wait()
	res.PlanLatency = percentiles(planLat)
	if len(byShard) > 1 {
		res.PlanLatencyByShard = make(map[string]Percentiles, len(byShard))
		for key, samples := range byShard {
			res.PlanLatencyByShard[key] = percentiles(samples)
		}
	}
	return &res, nil
}

// ScrapeMetrics fetches /v1/metrics and returns counter and histogram
// sample counts by name.
func ScrapeMetrics(ctx context.Context, client *http.Client, baseURL string) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: %s", resp.Status)
	}
	var ms []schedd.MetricJSON
	if err := json.NewDecoder(resp.Body).Decode(&ms); err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(ms))
	for _, m := range ms {
		// The daemon's router serves each family as a shard="all" rollup
		// plus per-shard series; only the rollup may land in the map, or
		// the last shard's value would shadow the total.
		if v, labeled := shardLabel(m.Labels); labeled && v != "all" {
			continue
		}
		out[m.Name] = m.Value
	}
	return out, nil
}

// shardLabel extracts the "shard" label when present.
func shardLabel(labels []obs.Label) (string, bool) {
	for _, l := range labels {
		if l.Key == "shard" {
			return l.Value, true
		}
	}
	return "", false
}

// FetchJob fetches one job's status.
func FetchJob(ctx context.Context, client *http.Client, baseURL string, id int) (*schedd.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/jobs/%d", baseURL, id), nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/jobs/%d: %s", id, resp.Status)
	}
	var st schedd.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// String renders the result as a human-readable report.
func (r *Result) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "submissions     %d (accepted %d, 429 %d, other %d, transport %d)\n",
		r.Submitted, r.Accepted, r.Rejected429, r.RejectedOther, r.TransportErrors)
	if r.RejectedSLO > 0 || r.SLOMisses > 0 {
		fmt.Fprintf(&b, "slo             %d deadline rejections, %d admitted-then-missed\n",
			r.RejectedSLO, r.SLOMisses)
	}
	if r.AnytimeAdopted > 0 {
		fmt.Fprintf(&b, "anytime         %d incumbents adopted\n", r.AnytimeAdopted)
	}
	if r.Deduplicated > 0 || r.DuplicateIDs > 0 || r.MissingJobs > 0 {
		fmt.Fprintf(&b, "idempotency     %d dedup hits, %d newly accepted, %d duplicate IDs, %d missing jobs\n",
			r.Deduplicated, r.NewlyAccepted, r.DuplicateIDs, r.MissingJobs)
	}
	fmt.Fprintf(&b, "wall time       %.2fs (%.1f submissions/s)\n", r.WallSeconds, r.ThroughputRPS)
	fmt.Fprintf(&b, "end to end      %.2fs (%.1f planned/s)\n", r.TotalSeconds, r.EndToEndRPS)
	fmt.Fprintf(&b, "submit latency  p50 %.2fms  p90 %.2fms  p99 %.2fms  max %.2fms\n",
		r.SubmitLatency.P50, r.SubmitLatency.P90, r.SubmitLatency.P99, r.SubmitLatency.Max)
	fmt.Fprintf(&b, "plan latency    p50 %.2fms  p90 %.2fms  p99 %.2fms  max %.2fms\n",
		r.PlanLatency.P50, r.PlanLatency.P90, r.PlanLatency.P99, r.PlanLatency.Max)
	if len(r.PlanLatencyByShard) > 0 {
		keys := make([]string, 0, len(r.PlanLatencyByShard))
		for k := range r.PlanLatencyByShard {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := r.PlanLatencyByShard[k]
			fmt.Fprintf(&b, "  %-13s p50 %.2fms  p90 %.2fms  p99 %.2fms  max %.2fms\n",
				k, p.P50, p.P90, p.P99, p.Max)
		}
	}
	fmt.Fprintf(&b, "planned         %d of %d accepted (dropped %d)\n",
		r.Planned, r.Accepted, r.DroppedAccepted)
	fmt.Fprintf(&b, "replans         %d steps + %d completion replans in %d batches (%.1f/s, %d degraded)\n",
		r.Steps, r.Replans, r.Batches, r.ReplansPerSec, r.DegradedSteps)
	return b.String()
}
