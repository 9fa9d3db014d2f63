// HTTP contract of the daemon: the handler of internal/shard, which
// cmd/schedd serves at every shard count. Each test runs as a table
// over a 1-shard and a 2-shard Router; at one shard the router must
// answer exactly as a single core would (IDs, status codes,
// Retry-After values), at two the same contract holds with
// interleaved global IDs and fabric-wide aggregation.
package schedd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/schedd"
	"repro/internal/shard"
)

// shardCounts is the table every HTTP contract test runs over.
var shardCounts = []int{1, 2}

func forEachShardCount(t *testing.T, f func(t *testing.T, n int)) {
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { f(t, n) })
	}
}

// newRouter builds (but does not start) an n-shard router over a
// machine of n*perShard processors. Every shard's core gets a fresh
// self-tuning scheduler, a metrics registry and tr; cfg, when set,
// tweaks each core's configuration.
func newRouter(t *testing.T, n, perShard int, tr *obs.Tracer, cfg func(*schedd.Config)) *shard.Router {
	t.Helper()
	r, err := shard.New(shard.Config{
		Shards:  n,
		Machine: n * perShard,
		Metrics: obs.NewRegistry(),
		Trace:   tr,
		Factory: func(idx, machine int) (schedd.Config, error) {
			c := schedd.Config{
				Scheduler: newTestScheduler(t),
				Clock:     schedd.NewManualClock(0),
				Trace:     tr,
				Metrics:   obs.NewRegistry(),
			}
			if cfg != nil {
				cfg(&c)
			}
			return c, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// serve starts the router and serves its HTTP API until the test ends.
func serve(t *testing.T, r *shard.Router) *httptest.Server {
	t.Helper()
	r.Start()
	srv := httptest.NewServer(shard.NewHandler(r))
	t.Cleanup(func() {
		srv.Close()
		stopRouter(t, r)
	})
	return srv
}

func stopRouter(t *testing.T, r *shard.Router) *shard.MergedSnapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	final, err := r.Stop(ctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	return final
}

// waitJobs polls until every given job has left the queued state.
func waitJobs(t *testing.T, r *shard.Router, ids ...int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for _, id := range ids {
		for {
			st, ok := r.Job(id)
			if ok && st.State != schedd.StateQueued {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d never left queued (known=%v, state %v)", id, ok, st.State)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func postJob(t *testing.T, url string, body schedd.SubmitJSON) (*http.Response, schedd.SubmitResponse) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var out schedd.SubmitResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, out
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func readAll(t *testing.T, r *http.Response) []byte {
	t.Helper()
	defer r.Body.Close()
	b, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rollup returns the shard="all" series of a family from a JSON
// metrics dump; extra are further labels the series must carry.
func rollup(ms []schedd.MetricJSON, name string, extra ...obs.Label) (schedd.MetricJSON, bool) {
	want := append(extra, obs.Label{Key: "shard", Value: "all"})
	for _, m := range ms {
		if m.Name == name && len(m.Labels) == len(want) {
			match := true
			for i := range want {
				match = match && m.Labels[i] == want[i]
			}
			if match {
				return m, true
			}
		}
	}
	return schedd.MetricJSON{}, false
}

func TestHTTPSubmitAndQuery(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, n int) {
		r := newRouter(t, n, 8, nil, nil)
		srv := serve(t, r)
		resp, sub := postJob(t, srv.URL, schedd.SubmitJSON{Width: 2, Estimate: 300})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /v1/jobs = %d, want 202", resp.StatusCode)
		}
		// Global IDs are local*N + shard; the first local ID is 1.
		if sub.ID != n+sub.Shard || sub.State != schedd.StateQueued {
			t.Errorf("submit response = %+v, want ID %d", sub, n+sub.Shard)
		}
		waitJobs(t, r, sub.ID)

		var st schedd.JobStatus
		getJSON(t, srv.URL+"/v1/jobs/"+strconv.Itoa(sub.ID), &st)
		if st.ID != sub.ID || st.State == schedd.StateQueued {
			t.Errorf("job status = %+v, want planned state", st)
		}
		if r404, _ := http.Get(srv.URL + "/v1/jobs/4242"); r404.StatusCode != http.StatusNotFound {
			t.Errorf("GET unknown job = %d, want 404", r404.StatusCode)
		}
		if rbad, _ := http.Get(srv.URL + "/v1/jobs/xyz"); rbad.StatusCode != http.StatusBadRequest {
			t.Errorf("GET bad id = %d, want 400", rbad.StatusCode)
		}
	})
}

func TestHTTPValidationRejects(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, n int) {
		srv := serve(t, newRouter(t, n, 4, nil, nil))
		resp, _ := postJob(t, srv.URL, schedd.SubmitJSON{Width: 99, Estimate: 10})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("oversized width = %d, want 400", resp.StatusCode)
		}
		r, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte("{not json")))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("malformed body = %d, want 400", r.StatusCode)
		}
	})
}

func TestHTTPRateLimit429(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, n int) {
		srv := serve(t, newRouter(t, n, 8, nil, func(c *schedd.Config) {
			c.RatePerSource, c.Burst = 0.001, 1
		}))
		// Each shard has its own one-token bucket: an unkeyed source
		// falls through to the next shard until every bucket is empty.
		for i := 0; i < n; i++ {
			if resp, _ := postJob(t, srv.URL, schedd.SubmitJSON{Width: 1, Estimate: 10, Source: "u1"}); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit %d = %d, want 202", i, resp.StatusCode)
			}
		}
		limited, _ := postJob(t, srv.URL, schedd.SubmitJSON{Width: 1, Estimate: 10, Source: "u1"})
		if limited.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("rate-limited submit = %d, want 429", limited.StatusCode)
		}
		if ra := limited.Header.Get("Retry-After"); ra == "" {
			t.Error("429 without Retry-After header")
		} else if s, err := strconv.Atoi(ra); err != nil || s < 1 {
			t.Errorf("Retry-After = %q, want a positive integer", ra)
		}
	})
}

func TestHTTPScheduleHealthMetrics(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, n int) {
		r := newRouter(t, n, 8, nil, nil)
		srv := serve(t, r)
		var ids []int
		for i := 0; i < 3; i++ {
			resp, sub := postJob(t, srv.URL, schedd.SubmitJSON{Width: 8, Estimate: int64(100 * (i + 1))})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit %d = %d", i, resp.StatusCode)
			}
			ids = append(ids, sub.ID)
		}
		waitJobs(t, r, ids...)
		// Each shard is width-8-saturated: a full-width job goes to the
		// emptiest shard, so min(3, n) run and the rest wait in the plan.
		running := min(3, n)

		var snap shard.MergedSnapshot
		getJSON(t, srv.URL+"/v1/schedule", &snap)
		if snap.Counts.Planned != 3 {
			t.Errorf("schedule counts = %+v, want 3 planned", snap.Counts)
		}
		if len(snap.Schedule) != 3-running {
			t.Errorf("schedule has %d entries, want %d future starts", len(snap.Schedule), 3-running)
		}
		if len(snap.PerShard) != n || snap.PerShard[0].Policy == "" {
			t.Errorf("per_shard = %+v, want %d views with an active policy", snap.PerShard, n)
		}

		var h shard.HealthJSON
		getJSON(t, srv.URL+"/v1/healthz", &h)
		if h.Status != "ok" || h.Shards != n {
			t.Errorf("health status %q over %d shards, want ok over %d", h.Status, h.Shards, n)
		}
		if len(h.Phases) != n || h.Phases[0] != schedd.PhaseReady {
			t.Errorf("health phases = %v, want %d x ready", h.Phases, n)
		}
		if h.Running != running || h.Waiting != 3-running {
			t.Errorf("health running/waiting = %d/%d, want %d/%d", h.Running, h.Waiting, running, 3-running)
		}

		var ms []schedd.MetricJSON
		getJSON(t, srv.URL+"/v1/metrics", &ms)
		if len(ms) == 0 {
			t.Fatal("empty metrics dump")
		}
		if sub, _ := rollup(ms, "schedd.submits"); sub.Value != 3 {
			t.Errorf("schedd.submits = %d, want 3", sub.Value)
		}
		lat, ok := rollup(ms, "schedd.submit_to_plan_ms")
		if !ok || lat.Kind != "histogram" || lat.Value != 3 {
			t.Errorf("schedd.submit_to_plan_ms = %+v, want histogram with 3 samples", lat)
		}
		if len(lat.Buckets) == 0 || lat.Buckets[len(lat.Buckets)-1].LE != "+Inf" {
			t.Errorf("histogram buckets malformed: %+v", lat.Buckets)
		}
	})
}

func TestHTTPDraining503(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, n int) {
		r := newRouter(t, n, 8, nil, nil)
		srv := serve(t, r)
		stopRouter(t, r)
		resp, _ := postJob(t, srv.URL, schedd.SubmitJSON{Width: 1, Estimate: 10})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("submit while draining = %d, want 503", resp.StatusCode)
		}
		var h shard.HealthJSON
		getJSON(t, srv.URL+"/v1/healthz", &h)
		if h.Status != "draining" {
			t.Errorf("health status = %q, want draining", h.Status)
		}
	})
}

func TestHTTPQueueFull429(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, n int) {
		// The router is built but never started: no submit queue can
		// drain, so the bound is hit deterministically once every
		// shard's queue is full, and the HTTP layer must answer 429
		// with Retry-After.
		r := newRouter(t, n, 8, nil, func(c *schedd.Config) { c.QueueBound = 2 })
		srv := httptest.NewServer(shard.NewHandler(r))
		defer srv.Close()
		var first int
		for i := 0; i < 2*n; i++ {
			resp, sub := postJob(t, srv.URL, schedd.SubmitJSON{Width: 1, Estimate: 10})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit %d = %d, want 202", i, resp.StatusCode)
			}
			if i == 0 {
				first = sub.ID
			}
		}
		b, _ := json.Marshal(schedd.SubmitJSON{Width: 1, Estimate: 10})
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("submit into full queues = %d, want 429", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			t.Errorf("queue-full Retry-After = %q, want 1", ra)
		}
		var e map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
			t.Errorf("429 body not a JSON error: %v %v", e, err)
		}
		// The queued-but-unplanned jobs are still visible as queued.
		if st, ok := r.Job(first); !ok || st.State != schedd.StateQueued {
			t.Errorf("job %d = %+v (%v), want queued", first, st, ok)
		}
	})
}

// One trace ID must be followable through every lifecycle event:
// admission span, submit, batched, planned, published. The admission
// span must also close with the request's outcome, for rejections too.
func TestTraceFollowsJobThroughLifecycle(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, n int) {
		var buf bytes.Buffer
		r := newRouter(t, n, 8, obs.NewTracer(&buf), nil)
		srv := serve(t, r)
		post := func(trace, body string) *http.Response {
			req, _ := http.NewRequest("POST", srv.URL+"/v1/jobs", strings.NewReader(body))
			req.Header.Set(schedd.TraceHeader, trace)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}
		resp := post("trace-e2e-1", `{"width": 2, "estimate_s": 100, "source": "test"}`)
		var sr schedd.SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.Header.Get(schedd.TraceHeader) != "trace-e2e-1" || sr.TraceID != "trace-e2e-1" {
			t.Errorf("trace not echoed: header %q, body %q", resp.Header.Get(schedd.TraceHeader), sr.TraceID)
		}
		if bad := post("trace-e2e-bad", `{"width": 99, "estimate_s": 100}`); bad.StatusCode != http.StatusBadRequest {
			t.Errorf("oversized width = %d, want 400", bad.StatusCode)
		}
		waitJobs(t, r, sr.ID)
		if st, ok := r.Job(sr.ID); !ok || st.TraceID != "trace-e2e-1" {
			t.Errorf("job status trace = %+v", st)
		}

		// Stop the router so the writer loops (and their tracer writes)
		// are done before the buffer is read.
		stopRouter(t, r)

		want := map[string]bool{
			"schedd.admit": false, "schedd.submit": false, "schedd.job.batched": false,
			"schedd.job.planned": false, "schedd.job.published": false,
		}
		outcomes := map[string]string{} // trace -> admission outcome
		for _, line := range strings.Split(buf.String(), "\n") {
			if line == "" {
				continue
			}
			var e map[string]any
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatalf("bad JSONL line %q: %v", line, err)
			}
			ev, _ := e["ev"].(string)
			if _, tracked := want[ev]; tracked && e["trace"] == "trace-e2e-1" {
				want[ev] = true
			}
			if ev == "schedd.admit" && e["phase"] == "end" {
				trace, _ := e["trace"].(string)
				outcomes[trace], _ = e["outcome"].(string)
				if trace == "trace-e2e-1" && e["job"] != float64(sr.ID) {
					t.Errorf("admission span job = %v, want %d", e["job"], sr.ID)
				}
			}
		}
		for ev, seen := range want {
			if !seen {
				t.Errorf("event %s with trace ID never emitted\ntrace:\n%s", ev, buf.String())
			}
		}
		if outcomes["trace-e2e-1"] != "accepted" || outcomes["trace-e2e-bad"] != "invalid" {
			t.Errorf("admission outcomes = %v, want accepted and invalid", outcomes)
		}
	})
}

func TestReplansAndPromEndpoints(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, n int) {
		r := newRouter(t, n, 8, nil, nil)
		srv := serve(t, r)
		var ids []int
		for i := 0; i < 3; i++ {
			resp, err := r.Submit(context.Background(), schedd.SubmitRequest{Width: 1, Estimate: int64(10 * (i + 1)), Source: "s1"})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, resp.ID)
		}
		waitJobs(t, r, ids...)

		var shards []shard.ReplansJSON
		getJSON(t, srv.URL+"/v1/replans", &shards)
		if len(shards) != n {
			t.Fatalf("/v1/replans has %d shards, want %d", len(shards), n)
		}
		okSteps := 0
		for _, s := range shards {
			recs := s.Replans
			if len(recs) > 1 && recs[0].Seq < recs[len(recs)-1].Seq {
				t.Errorf("shard %d: /v1/replans not newest first", s.Shard)
			}
			for _, rec := range recs {
				if rec.Kind == "step" && rec.Outcome == "ok" {
					okSteps++
				}
			}
		}
		if okSteps == 0 {
			t.Errorf("no ok step records: %+v", shards)
		}

		// /metrics serves a valid Prometheus exposition with runtime
		// gauges and the labeled submit counter rolled up across shards.
		pm, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, pm)
		if ct := pm.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("Content-Type = %q", ct)
		}
		if err := obs.ValidateExposition(body); err != nil {
			t.Errorf("invalid exposition: %v\n%s", err, body)
		}
		for _, wantLine := range []string{"go_goroutines", `schedd_submits_by_source{source="s1",shard="all"} 3`} {
			if !strings.Contains(string(body), wantLine) {
				t.Errorf("exposition missing %q:\n%s", wantLine, body)
			}
		}

		// /v1/metrics negotiates: Prometheus for text/plain, JSON
		// otherwise; both views come from the same snapshot.
		req, _ := http.NewRequest("GET", srv.URL+"/v1/metrics", nil)
		req.Header.Set("Accept", "text/plain;version=0.0.4")
		pn, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateExposition(readAll(t, pn)); err != nil {
			t.Errorf("negotiated /v1/metrics exposition invalid: %v", err)
		}
		var ms []schedd.MetricJSON
		getJSON(t, srv.URL+"/v1/metrics", &ms)
		if bySource, ok := rollup(ms, "schedd.submits.by_source", obs.Label{Key: "source", Value: "s1"}); !ok || bySource.Value != 3 {
			t.Errorf("labeled series missing from JSON: %+v", bySource)
		}
		gauges := 0
		for _, m := range ms {
			if m.Kind == "gauge" {
				gauges++
			}
		}
		if gauges == 0 {
			t.Error("no runtime gauges in JSON metrics")
		}
	})
}
