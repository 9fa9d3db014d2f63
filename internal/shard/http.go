// HTTP front end of the scheduling daemon: cmd/schedd serves this
// handler at every shard count, a 1-shard router included. The wire
// types clients decode (SubmitJSON, MetricJSON, SubmitResponse,
// JobStatus) live in internal/schedd.
//
//	POST /v1/jobs      submit (routed; 429 carries the max Retry-After
//	                   across the shards tried; traced as schedd.admit)
//	GET  /v1/jobs/{id} job state by global ID (migration aliases
//	                   followed transparently)
//	GET  /v1/schedule  scatter-gather merged snapshot (partial=true
//	                   instead of blocking when a shard stalls;
//	                   per_shard[i].policy is shard i's active policy)
//	GET  /v1/events    Server-Sent Events: plan-version, job-planned,
//	                   job-completed, plan-improved (?types= filters;
//	                   id: is the hub-global event ID — reconnect with
//	                   Last-Event-ID to resume exactly-once)
//	GET  /v1/healthz   health: status, queue depth, per-shard WAL
//	                   phases, the stalest shard's plan age
//	GET  /v1/metrics   merged metrics, per-shard "shard" labels (JSON,
//	                   or Prometheus when Accept asks)
//	GET  /metrics      Prometheus text exposition
//	GET  /v1/replans   flight recorders of all shards
//	GET  /v1/shards    per-shard load/placement view
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/schedd"
)

// HealthJSON is the router's GET /v1/healthz body.
type HealthJSON struct {
	Status     string   `json:"status"` // "ok", "replaying" or "draining"
	Now        int64    `json:"now"`
	Shards     int      `json:"shards"`
	QueueDepth int      `json:"queue_depth"` // summed across shards
	Waiting    int      `json:"waiting"`
	Running    int      `json:"running"`
	Phases     []string `json:"phases"` // per-shard WAL recovery phase
	// PlanAgeMs is the wall-clock age of the stalest shard's adopted
	// plan — the fabric's plan-freshness signal.
	PlanAgeMs float64 `json:"plan_age_ms"`
}

// ReplansJSON is one shard's flight-recorder dump in GET /v1/replans.
type ReplansJSON struct {
	Shard   int                   `json:"shard"`
	Replans []schedd.ReplanRecord `json:"replans"`
}

// NewHandler returns the router's HTTP API.
func NewHandler(r *Router) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, req *http.Request) {
		var body schedd.SubmitJSON
		if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err))
			return
		}
		trace := req.Header.Get(schedd.TraceHeader)
		if trace == "" {
			trace = obs.NewTraceID()
		}
		w.Header().Set(schedd.TraceHeader, trace)
		ctx := obs.WithTraceID(req.Context(), trace)
		ctx, span := r.trace.StartSpanCtx(ctx, "schedd.admit",
			obs.Str("source", body.Source),
			obs.Int("width", int64(body.Width)))
		resp, err := r.Submit(ctx, schedd.SubmitRequest{
			Width: body.Width, Estimate: body.Estimate, Runtime: body.Runtime, Source: body.Source,
			Deadline:       body.Deadline,
			IdempotencyKey: req.Header.Get(schedd.IdemHeader),
		})
		if err != nil {
			span.End(obs.Str("outcome", writeSubmitError(w, err)))
			return
		}
		span.End(obs.Str("outcome", "accepted"), obs.Int("job", int64(resp.ID)))
		writeJSON(w, http.StatusAccepted, resp)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, req *http.Request) {
		id, err := strconv.Atoi(req.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad job id %q", req.PathValue("id")))
			return
		}
		st, ok := r.Job(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/schedule", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.Gather())
	})
	mux.HandleFunc("GET /v1/events", func(w http.ResponseWriter, req *http.Request) {
		serveEvents(r, w, req)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, health(r))
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, req *http.Request) {
		// One snapshot pass feeds whichever encoder the client
		// negotiated; JSON stays the default.
		ms := append(r.MergedMetrics(), obs.RuntimeMetrics()...)
		if wantsPrometheus(req.Header.Get("Accept")) {
			writePrometheus(w, ms)
			return
		}
		writeJSON(w, http.StatusOK, schedd.MetricsToJSON(ms))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, req *http.Request) {
		writePrometheus(w, append(r.MergedMetrics(), obs.RuntimeMetrics()...))
	})
	mux.HandleFunc("GET /v1/replans", func(w http.ResponseWriter, req *http.Request) {
		out := make([]ReplansJSON, r.n)
		for i, c := range r.cores {
			out[i] = ReplansJSON{Shard: i, Replans: c.Replans()}
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /v1/shards", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.shardViews())
	})
	return mux
}

// serveEvents is the SSE endpoint: one event per line-block, the
// hub-global event ID as the id: field (so a reconnect presenting
// Last-Event-ID resumes exactly-once from the replay ring), a comment
// heartbeat every 15s so idle connections stay alive through proxies.
func serveEvents(r *Router, w http.ResponseWriter, req *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	var types map[string]bool
	if q := req.URL.Query().Get("types"); q != "" {
		types = map[string]bool{}
		for _, t := range strings.Split(q, ",") {
			types[strings.TrimSpace(t)] = true
		}
	}
	var afterID uint64
	if v := req.Header.Get("Last-Event-ID"); v != "" {
		afterID, _ = strconv.ParseUint(v, 10, 64)
	}
	sub := r.hub.SubscribeFrom(types, afterID)
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case ev, open := <-sub.Events():
			if !open {
				// Overflow disconnect: the subscriber fell too far behind.
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, data); err != nil {
				return
			}
			flusher.Flush()
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-req.Context().Done():
			return
		}
	}
}

// health assembles the fabric health view from O(1) per-shard reads.
func health(r *Router) HealthJSON {
	h := HealthJSON{Shards: r.n, Phases: make([]string, r.n)}
	status := "ok"
	for i, c := range r.cores {
		s := c.Snapshot()
		h.Phases[i] = c.Phase()
		if age := float64(c.PlanAge()) / float64(time.Millisecond); age > h.PlanAgeMs {
			h.PlanAgeMs = age // stalest shard wins: the weakest freshness
		}
		if h.Phases[i] == schedd.PhaseReplaying {
			status = "replaying"
		}
		if s.Draining {
			status = "draining"
		}
		if s.Now > h.Now {
			h.Now = s.Now
		}
		h.QueueDepth += c.QueueDepth()
		waiting, running := activeCounts(s)
		h.Waiting += waiting
		h.Running += running
	}
	h.Status = status
	return h
}

// LoadJSON is one row of GET /v1/shards: the placement inputs plus
// the rebalance signal.
type LoadJSON struct {
	Shard             int     `json:"shard"`
	Machine           int     `json:"machine"`
	QueueDepth        int     `json:"queue_depth"`
	Active            int     `json:"active"`
	PlanP99Ms         float64 `json:"plan_p99_ms"`
	PendingMigrations int     `json:"pending_migrations"`
	Version           int64   `json:"version"`
}

func (r *Router) shardViews() []LoadJSON {
	out := make([]LoadJSON, r.n)
	for i, c := range r.cores {
		s := c.Snapshot()
		out[i] = LoadJSON{
			Shard:             i,
			Machine:           r.machines[i],
			QueueDepth:        c.QueueDepth(),
			Active:            len(s.Active),
			PlanP99Ms:         c.PlanLatencyQuantile(0.99),
			PendingMigrations: len(c.PendingMigrations()),
			Version:           s.Version,
		}
	}
	return out
}

// writeSubmitError answers a rejected submission and returns the
// outcome its admission span records: 429 with Retry-After for
// backpressure (a BackpressureError carries the maximum hint across
// the shards tried and unwraps to the last shard's rejection), 503
// while draining or replaying the WAL, 400 for malformed submissions.
func writeSubmitError(w http.ResponseWriter, err error) (outcome string) {
	var rl *schedd.RateLimitedError
	var se *schedd.SLOExceededError
	var ve *schedd.ValidationError
	status, retry := http.StatusTooManyRequests, time.Duration(0)
	switch {
	case errors.Is(err, schedd.ErrQueueFull):
		outcome, retry = "queue_full", time.Second
	case errors.As(err, &rl):
		outcome, retry = "rate_limited", rl.RetryAfter
	case errors.As(err, &se):
		// The twin's predicted start busts the client's deadline: the
		// Retry-After is sized so a resubmission could still make it.
		outcome, retry = "slo_deadline", se.RetryAfter
	case errors.Is(err, schedd.ErrDraining):
		outcome, status = "draining", http.StatusServiceUnavailable
	case errors.Is(err, schedd.ErrRecovering):
		// Recovery is short and bounded (snapshots cap the replay), so a
		// quick retry is the right client behavior.
		outcome, status, retry = "recovering", http.StatusServiceUnavailable, time.Second
	case errors.As(err, &ve):
		outcome, status = "invalid", http.StatusBadRequest
	default:
		outcome, status = "error", http.StatusInternalServerError
	}
	var bp *BackpressureError
	if errors.As(err, &bp) {
		retry = bp.RetryAfter
	}
	if status == http.StatusTooManyRequests || retry > 0 {
		w.Header().Set("Retry-After", retryAfterSeconds(retry))
	}
	writeError(w, status, err)
	return outcome
}

// retryAfterSeconds renders a Retry-After header value (whole seconds,
// minimum 1 as the header cannot express sub-second waits).
func retryAfterSeconds(d time.Duration) string {
	s := int64(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return strconv.FormatInt(s, 10)
}

// wantsPrometheus reports whether the Accept header asks for the text
// exposition (a Prometheus scraper sends text/plain and/or
// application/openmetrics-text; JSON clients and browsers do not lead
// with those).
func wantsPrometheus(accept string) bool {
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

func writePrometheus(w http.ResponseWriter, ms []obs.Metric) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = obs.WritePrometheus(w, ms)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
