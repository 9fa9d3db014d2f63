package schedd

import (
	"bytes"
	"context"
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
