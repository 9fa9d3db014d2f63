package loadgen

import (
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dynp"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/schedd"
	"repro/internal/shard"
)

// startService brings up a 1-shard router (the daemon's default
// shape) behind an httptest server; cfg is its one core's
// configuration.
func startService(t *testing.T, cfg schedd.Config) *httptest.Server {
	t.Helper()
	if cfg.Scheduler == nil {
		pols := []policy.Policy{policy.FCFS{}, policy.SJF{}, policy.LJF{}}
		m, err := metrics.ByName("SLDwA")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scheduler, err = dynp.New(pols, m, dynp.AdvancedDecider{})
		if err != nil {
			t.Fatal(err)
		}
	}
	if cfg.Clock == nil {
		cfg.Clock = schedd.NewManualClock(0)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	r, err := shard.New(shard.Config{
		Shards:  1,
		Machine: 64,
		Metrics: obs.NewRegistry(),
		Factory: func(int, int) (schedd.Config, error) { return cfg, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		r.Stop(ctx)
	})
	srv := httptest.NewServer(shard.NewHandler(r))
	t.Cleanup(srv.Close)
	return srv
}

// burstTrace builds n jobs arriving in a burst every burstGap seconds,
// burstSize jobs per burst.
func burstTrace(n, burstSize int, burstGap int64) *job.Trace {
	tr := &job.Trace{Processors: 64, Note: "loadgen test"}
	for i := 0; i < n; i++ {
		tr.Jobs = append(tr.Jobs, &job.Job{
			ID:       i + 1,
			Submit:   int64(i/burstSize) * burstGap,
			Width:    1 + i%4,
			Estimate: 600,
			Runtime:  300,
		})
	}
	return tr
}

func TestRunReplaysTraceAndMeasures(t *testing.T) {
	srv := startService(t, schedd.Config{MaxBatch: 64})
	res, err := Run(context.Background(), Config{
		BaseURL: srv.URL,
		Trace:   burstTrace(40, 8, 60),
		Accel:   6000, // a 60 s burst gap becomes 10 ms of wall time
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted != 40 || res.Accepted != 40 {
		t.Fatalf("submitted/accepted = %d/%d, want 40/40: %s", res.Submitted, res.Accepted, res)
	}
	if res.Rejected429 != 0 || res.RejectedOther != 0 || res.TransportErrors != 0 {
		t.Errorf("unexpected rejections: %s", res)
	}
	if res.DroppedAccepted != 0 || res.Planned != 40 {
		t.Errorf("planned %d, dropped %d, want 40/0", res.Planned, res.DroppedAccepted)
	}
	if res.Steps <= 0 {
		t.Errorf("steps = %d, want > 0", res.Steps)
	}
	if res.ThroughputRPS <= 0 || res.WallSeconds <= 0 {
		t.Errorf("throughput bookkeeping empty: %s", res)
	}
	if res.SubmitLatency.Max <= 0 {
		t.Errorf("submit latency not measured: %+v", res.SubmitLatency)
	}
	if res.PlanLatency.Max <= 0 || res.PlanLatency.P50 > res.PlanLatency.P99 {
		t.Errorf("plan latency malformed: %+v", res.PlanLatency)
	}
}

func TestRunBatchingReducesReplans(t *testing.T) {
	trace := burstTrace(48, 12, 120)
	steps := make(map[string]int64)
	for _, tc := range []struct {
		name string
		cfg  schedd.Config
	}{
		{"off", schedd.Config{MaxBatch: 1}},
		{"on", schedd.Config{MaxBatch: 64}},
	} {
		srv := startService(t, tc.cfg)
		res, err := Run(context.Background(), Config{
			BaseURL: srv.URL,
			Trace:   trace,
			Accel:   12000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted != 48 || res.DroppedAccepted != 0 {
			t.Fatalf("batching=%s: accepted %d dropped %d, want 48/0",
				tc.name, res.Accepted, res.DroppedAccepted)
		}
		steps[tc.name] = res.Steps
	}
	if steps["off"] != 48 {
		t.Errorf("batching off: %d steps, want one per submission (48)", steps["off"])
	}
	if steps["on"] >= steps["off"] {
		t.Errorf("batching on: %d steps, want fewer than %d", steps["on"], steps["off"])
	}
}

func TestRunSurfacesBackpressure(t *testing.T) {
	// One token per source and a near-zero refill rate: only the first
	// submission of each source is admitted, the rest must come back as
	// 429s, not transport errors.
	srv := startService(t, schedd.Config{
		RatePerSource: 0.0001, Burst: 1, MaxBatch: 1,
	})
	res, err := Run(context.Background(), Config{
		BaseURL: srv.URL,
		Trace:   burstTrace(12, 12, 0),
		Accel:   1000,
		Sources: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 3 {
		t.Errorf("accepted = %d, want one per source (3)", res.Accepted)
	}
	if res.Rejected429 != 9 {
		t.Errorf("429s = %d, want 9", res.Rejected429)
	}
	if res.TransportErrors != 0 || res.RejectedOther != 0 {
		t.Errorf("unexpected failures: %s", res)
	}
	if res.DroppedAccepted != 0 {
		t.Errorf("dropped accepted = %d, want 0", res.DroppedAccepted)
	}
}

func TestPercentiles(t *testing.T) {
	if p := percentiles(nil); p.P50 != 0 || p.Max != 0 {
		t.Errorf("empty percentiles = %+v", p)
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i + 1) // 1..100
	}
	p := percentiles(samples)
	// Histogram-estimated quantiles: each distinct sample is a bucket
	// edge, so 1..100 interpolates to the exact nearest-rank values; Max
	// is always exact.
	if p.P50 != 50 || p.P90 != 90 || p.P99 != 99 || p.Max != 100 {
		t.Errorf("percentiles(1..100) = %+v", p)
	}
	one := percentiles([]float64{7})
	if one.Max != 7 {
		t.Errorf("percentiles([7]).Max = %v, want exact 7", one.Max)
	}
	if one.P50 <= 0 || one.P50 > 7 || one.P99 <= 0 || one.P99 > 7 {
		t.Errorf("percentiles([7]) estimates out of range: %+v", one)
	}
	if one.P50 > one.P99 {
		t.Errorf("quantiles not monotone: %+v", one)
	}
	if math.IsNaN(p.P50) {
		t.Error("NaN percentile")
	}
}

func TestRunValidatesConfig(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{BaseURL: "http://127.0.0.1:1"},
		{Trace: burstTrace(1, 1, 0)},
	} {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("Run(%+v) succeeded, want error", cfg)
		}
	}
}

func TestResultString(t *testing.T) {
	r := &Result{Submitted: 10, Accepted: 9, Rejected429: 1, WallSeconds: 2}
	s := r.String()
	for _, want := range []string{"submissions", "429 1", "plan latency"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
}
