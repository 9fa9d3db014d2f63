// Serving end-to-end test: the daemon's HTTP service (a 1-shard
// router, as cmd/schedd runs by default) under accelerated CTC replay
// with injected solve faults. This is the body of the CI
// serving-e2e job (run under -race): the service must stay up, degrade
// gracefully on every failed solve, plan every accepted job, and drain
// cleanly.
package schedd_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/loadgen"
	"repro/internal/mip"
	"repro/internal/obs"
	"repro/internal/schedd"
	"repro/internal/shard"
	"repro/internal/solvepipe"
	"repro/internal/workload"
)

func TestServingE2EWithFaults(t *testing.T) {
	const nJobs = 200
	tr, err := workload.Generate(workload.CTC(), nJobs, 7)
	if err != nil {
		t.Fatal(err)
	}
	// 20% of solve calls fault (timeouts, panics, infeasibilities); no
	// retries, so every faulted step must degrade to the basic-policy
	// schedule and be reported, never kill the service.
	inj := faultinject.New(faultinject.NewProbability(7, 0.2))
	r, err := shard.New(shard.Config{
		Shards:  1,
		Machine: tr.Processors,
		Metrics: obs.NewRegistry(),
		Factory: func(idx, machine int) (schedd.Config, error) {
			return schedd.Config{
				Scheduler:    newTestScheduler(t),
				Clock:        schedd.NewWallClock(50000),
				QueueBound:   1024,
				MaxBatch:     64,
				ReplanBuffer: 4096, // keep every replan of the run for the assertions below
				ILP: &schedd.ILPConfig{
					StepConfig: solvepipe.StepConfig{Pipe: solvepipe.Config{
						Budget: 500 * time.Millisecond,
						MIP:    mip.Options{MaxNodes: 50000},
						Hook:   inj.Hook,
					}},
				},
				Metrics: obs.NewRegistry(),
			}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	srv := httptest.NewServer(shard.NewHandler(r))
	defer srv.Close()

	res, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:     srv.URL,
		Trace:       tr,
		Accel:       50000,
		Sources:     4,
		WaitTimeout: 3 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("serving e2e:\n%s", res)

	if res.Accepted != nJobs {
		t.Errorf("accepted %d of %d submissions", res.Accepted, nJobs)
	}
	if res.TransportErrors > 0 {
		t.Errorf("%d transport errors: the service went down under faults", res.TransportErrors)
	}
	// Zero dropped accepted jobs: everything admitted must be planned.
	if res.DroppedAccepted != 0 {
		t.Errorf("%d accepted jobs were never planned", res.DroppedAccepted)
	}
	// With 20% per-call faults and no retries, degraded replans must
	// both happen and be surfaced.
	if res.DegradedSteps == 0 {
		t.Errorf("no degraded steps despite %d injected faults", len(inj.Injected()))
	}
	if len(inj.Injected()) == 0 {
		t.Error("fault injector never fired")
	}

	// The snapshot API must expose the degradation state and a
	// non-empty metrics dump must be served.
	var snap shard.MergedSnapshot
	getJSON(t, srv.URL+"/v1/schedule", &snap)
	if snap.Counts.DegradedSteps != res.DegradedSteps {
		t.Errorf("snapshot reports %d degraded steps, metrics %d",
			snap.Counts.DegradedSteps, res.DegradedSteps)
	}
	var ms []schedd.MetricJSON
	getJSON(t, srv.URL+"/v1/metrics", &ms)
	if len(ms) == 0 {
		t.Error("empty /v1/metrics dump")
	}

	// Every faulted (degraded) replan must be queryable in the flight
	// recorder with a reason, and the Prometheus exposition must parse
	// and carry the degraded outcome as a labeled series.
	var shards []shard.ReplansJSON
	getJSON(t, srv.URL+"/v1/replans", &shards)
	degradedRecs := int64(0)
	for _, rec := range shards[0].Replans {
		if rec.Outcome != "degraded" {
			continue
		}
		degradedRecs++
		if rec.ReasonClass == "" || rec.Reason == "" {
			t.Errorf("degraded replan %d has no reason: %+v", rec.Seq, rec)
		}
		if len(rec.Attempts) == 0 {
			t.Errorf("degraded replan %d has no attempt provenance", rec.Seq)
		}
	}
	if degradedRecs != res.DegradedSteps {
		t.Errorf("/v1/replans shows %d degraded replans, metrics %d", degradedRecs, res.DegradedSteps)
	}
	pm, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, err := io.ReadAll(pm.Body)
	pm.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(expo); err != nil {
		t.Errorf("malformed Prometheus exposition: %v", err)
	}
	if !strings.Contains(string(expo), `schedd_step_outcome{outcome="degraded"`) {
		t.Error("exposition missing degraded outcome series")
	}

	// Clean drain: Stop returns without error and the final snapshot
	// accounts for every accepted job.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	final, err := r.Stop(ctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !final.Draining {
		t.Error("final snapshot not marked draining")
	}
	if final.Counts.Planned != int64(res.Accepted) {
		t.Errorf("drained with %d planned of %d accepted", final.Counts.Planned, res.Accepted)
	}
}
