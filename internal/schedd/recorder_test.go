package schedd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/mip"
	"repro/internal/obs"
	"repro/internal/solvepipe"
)

func TestFlightRecorderRing(t *testing.T) {
	f := newFlightRecorder(16)
	for i := 0; i < 100; i++ {
		f.add(ReplanRecord{Kind: "step", Batch: i})
	}
	if f.len() != 16 {
		t.Fatalf("len = %d, want 16", f.len())
	}
	recs := f.list()
	if len(recs) != 16 {
		t.Fatalf("list returned %d records, want 16", len(recs))
	}
	// Newest first: seq 100 down to 85, batch fields matching.
	for i, r := range recs {
		wantSeq := int64(100 - i)
		if r.Seq != wantSeq || r.Batch != int(wantSeq)-1 {
			t.Fatalf("recs[%d] = seq %d batch %d, want seq %d", i, r.Seq, r.Batch, wantSeq)
		}
	}
}

func TestFlightRecorderPartialFill(t *testing.T) {
	f := newFlightRecorder(8)
	f.add(ReplanRecord{Kind: "step"})
	f.add(ReplanRecord{Kind: "completion"})
	recs := f.list()
	if len(recs) != 2 || recs[0].Kind != "completion" || recs[1].Kind != "step" {
		t.Fatalf("list = %+v", recs)
	}
}

func TestFlightRecorderConcurrency(t *testing.T) {
	f := newFlightRecorder(32)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.add(ReplanRecord{Kind: "step"})
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				recs := f.list()
				for k := 1; k < len(recs); k++ {
					if recs[k].Seq >= recs[k-1].Seq {
						t.Errorf("list not newest-first: seq %d before %d", recs[k-1].Seq, recs[k].Seq)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := f.list()[0].Seq; got != 2000 {
		t.Errorf("final newest seq = %d, want 2000", got)
	}
}

// A degraded step must land in the flight recorder with its outcome,
// bounded reason class, and solve-attempt provenance — the queryable
// answer to "why did that replan fall back?".
func TestRecorderCapturesDegradedReplan(t *testing.T) {
	inj := faultinject.New(faultinject.NthCall{N: 1, Kind: faultinject.Infeasible})
	reg := obs.NewRegistry()
	c := startCore(t, Config{
		Machine: 16,
		Clock:   NewManualClock(0),
		Metrics: reg,
		ILP: &ILPConfig{
			StepConfig: solvepipe.StepConfig{Pipe: solvepipe.Config{
				Budget:  2 * time.Second,
				Retries: 1,
				MIP:     mip.Options{MaxNodes: 1000},
				Hook:    inj.Hook,
			}},
		},
	})
	if _, err := c.Submit(SubmitRequest{Width: 16, Estimate: 500}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(SubmitRequest{Width: 16, Estimate: 300}); err != nil {
		t.Fatal(err)
	}
	waitPlanned(t, c, 2)

	var deg *ReplanRecord
	for _, r := range c.Replans() {
		if r.Outcome == "degraded" {
			deg = &r
			break
		}
	}
	if deg == nil {
		t.Fatalf("no degraded record in %+v", c.Replans())
	}
	if deg.Kind != "step" || deg.ReasonClass != "infeasible" {
		t.Errorf("degraded record = %+v, want kind step, reason class infeasible", deg)
	}
	if !strings.Contains(deg.Reason, "infeasible") {
		t.Errorf("reason %q does not name the failure", deg.Reason)
	}
	if len(deg.Attempts) == 0 {
		t.Error("degraded record carries no attempt provenance")
	} else if deg.Attempts[len(deg.Attempts)-1].Failure != "infeasible" {
		t.Errorf("last attempt failure = %q", deg.Attempts[len(deg.Attempts)-1].Failure)
	}
	if deg.DurMs < 0 {
		t.Errorf("negative duration %v", deg.DurMs)
	}

	// The labeled families must expose the same outcome.
	found := map[string]bool{}
	for _, m := range reg.Snapshot() {
		if m.Name == "schedd.step.outcome" || m.Name == "schedd.degraded.by_reason" {
			for _, l := range m.Labels {
				found[l.Value] = true
			}
		}
	}
	if !found["degraded"] || !found["infeasible"] {
		t.Errorf("labeled metrics missing degraded outcome/reason: %v", found)
	}
}

// One trace ID must be followable through every lifecycle event:
// admission span, submit, batched, planned, published.
func TestTraceFollowsJobThroughLifecycle(t *testing.T) {
	var buf bytes.Buffer
	srv, c := startServer(t, Config{
		Machine: 8,
		Clock:   NewManualClock(0),
		Trace:   obs.NewTracer(&buf),
	})
	req, _ := http.NewRequest("POST", srv.URL+"/v1/jobs",
		strings.NewReader(`{"width": 2, "estimate_s": 100, "source": "test"}`))
	req.Header.Set(TraceHeader, "trace-e2e-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get(TraceHeader) != "trace-e2e-1" || sr.TraceID != "trace-e2e-1" {
		t.Errorf("trace not echoed: header %q, body %q", resp.Header.Get(TraceHeader), sr.TraceID)
	}
	waitPlanned(t, c, 1)
	if st, ok := c.Job(sr.ID); !ok || st.TraceID != "trace-e2e-1" {
		t.Errorf("job status trace = %+v", st)
	}

	// Stop the core so the writer loop (and its tracer writes) are done
	// before the buffer is read.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Stop(ctx); err != nil {
		t.Fatal(err)
	}

	want := map[string]bool{
		"schedd.admit": false, "schedd.submit": false, "schedd.job.batched": false,
		"schedd.job.planned": false, "schedd.job.published": false,
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" {
			continue
		}
		var e map[string]any
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		ev, _ := e["ev"].(string)
		if _, tracked := want[ev]; tracked && e["trace"] == "trace-e2e-1" && e["phase"] != "begin" {
			want[ev] = true
		}
		// The admit span's begin event carries the trace too.
		if ev == "schedd.admit" && e["phase"] == "begin" && e["trace"] == "trace-e2e-1" {
			want["schedd.admit"] = true
		}
	}
	for ev, seen := range want {
		if !seen {
			t.Errorf("event %s with trace ID never emitted\ntrace:\n%s", ev, buf.String())
		}
	}
}

// With step tracing sampled off, per-job trace events survive and a
// slow replan still dumps its reconstructed span tree.
func TestSamplingAndSlowReplanDump(t *testing.T) {
	var buf bytes.Buffer
	c := startCore(t, Config{
		Machine:          8,
		Clock:            NewManualClock(0),
		Trace:            obs.NewTracer(&buf),
		TraceSampleEvery: 1 << 30,         // sample every step span off
		SlowReplan:       time.Nanosecond, // every replan is "slow"
	})
	ctx := obs.WithTraceID(context.Background(), "t-sampled")
	if _, err := c.SubmitCtx(ctx, SubmitRequest{Width: 2, Estimate: 50}); err != nil {
		t.Fatal(err)
	}
	waitPlanned(t, c, 1)
	stopCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Stop(stopCtx); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, `"ev":"schedd.step"`) {
		t.Error("step span emitted despite sampling off")
	}
	if !strings.Contains(out, `"ev":"schedd.replan.slow"`) {
		t.Errorf("no slow-replan dump in trace:\n%s", out)
	}
	if !strings.Contains(out, `"ev":"schedd.job.planned"`) || !strings.Contains(out, "t-sampled") {
		t.Error("per-job trace events were sampled away")
	}
}

func TestReplansAndPromEndpoints(t *testing.T) {
	srv, c := startServer(t, Config{Machine: 8, Clock: NewManualClock(0)})
	for i := 0; i < 3; i++ {
		if _, err := c.Submit(SubmitRequest{Width: 1, Estimate: int64(10 * (i + 1)), Source: "s1"}); err != nil {
			t.Fatal(err)
		}
	}
	waitPlanned(t, c, 3)

	rr, err := http.Get(srv.URL + "/v1/replans")
	if err != nil {
		t.Fatal(err)
	}
	var recs []ReplanRecord
	if err := json.NewDecoder(rr.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if len(recs) == 0 {
		t.Fatal("empty /v1/replans")
	}
	if recs[0].Seq < recs[len(recs)-1].Seq {
		t.Error("/v1/replans not newest first")
	}
	okSteps := 0
	for _, r := range recs {
		if r.Kind == "step" && r.Outcome == "ok" {
			okSteps++
		}
	}
	if okSteps == 0 {
		t.Errorf("no ok step records: %+v", recs)
	}

	// /metrics serves a valid Prometheus exposition with runtime gauges
	// and the labeled submit counter.
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
	for _, wantLine := range []string{"go_goroutines", `schedd_submits_by_source{source="s1"} 3`} {
		if !strings.Contains(string(body), wantLine) {
			t.Errorf("exposition missing %q:\n%s", wantLine, body)
		}
	}

	// /v1/metrics negotiates: Prometheus for text/plain, JSON otherwise;
	// both views come from the same snapshot logic.
	req, _ := http.NewRequest("GET", srv.URL+"/v1/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	pn, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(readAll(t, pn)); err != nil {
		t.Errorf("negotiated /v1/metrics exposition invalid: %v", err)
	}
	jm, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var ms []MetricJSON
	if err := json.NewDecoder(jm.Body).Decode(&ms); err != nil {
		t.Fatal(err)
	}
	jm.Body.Close()
	var bySource *MetricJSON
	gauges := 0
	for i := range ms {
		if ms[i].Name == "schedd.submits.by_source" {
			bySource = &ms[i]
		}
		if ms[i].Kind == "gauge" {
			gauges++
		}
	}
	if bySource == nil || len(bySource.Labels) != 1 || bySource.Labels[0] != (obs.Label{Key: "source", Value: "s1"}) {
		t.Errorf("labeled series missing from JSON: %+v", bySource)
	}
	if gauges == 0 {
		t.Error("no runtime gauges in JSON metrics")
	}
}

func readAll(t *testing.T, r *http.Response) []byte {
	t.Helper()
	defer r.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
