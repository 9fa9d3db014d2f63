// Sharded serving end-to-end test: the 4-shard fabric under
// accelerated CTC replay with injected solve faults, driven through the
// router's HTTP surface. The fabric must accept everything, plan every
// accepted job (zero dropped), survive every faulted solve, and the
// SSE stream must deliver every plan-version event exactly once per
// subscriber — contiguous versions per shard, no gaps, no repeats.
package shard_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dynp"
	"repro/internal/faultinject"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/mip"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/schedd"
	"repro/internal/shard"
	"repro/internal/solvepipe"
	"repro/internal/workload"
)

// sseWatch consumes /v1/events?types=plan-version until ctx ends,
// recording the version sequence seen per shard.
type sseWatch struct {
	mu       sync.Mutex
	versions map[int][]int64
	frames   int
	err      error
}

func watchSSE(ctx context.Context, t *testing.T, url string) (*sseWatch, func()) {
	w := &sseWatch{versions: map[int][]int64{}}
	req, err := http.NewRequestWithContext(ctx, "GET", url+"/v1/events?types=plan-version", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64*1024), 64*1024)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev shard.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				w.mu.Lock()
				w.err = err
				w.mu.Unlock()
				return
			}
			w.mu.Lock()
			w.frames++
			w.versions[ev.Shard] = append(w.versions[ev.Shard], ev.Version)
			w.mu.Unlock()
		}
	}()
	return w, func() { <-done }
}

func TestShardedServingE2EWithFaults(t *testing.T) {
	const nJobs = 250
	tr, err := workload.Generate(workload.CTC(), nJobs, 9)
	if err != nil {
		t.Fatal(err)
	}
	pols := []policy.Policy{policy.FCFS{}, policy.SJF{}, policy.LJF{}}

	// One fault injector per shard (hooks run on concurrent writer
	// loops): 20% of solve calls fault, every one must degrade
	// gracefully, never kill a shard.
	injectors := make([]*faultinject.Injector, 4)
	factory := func(idx, machine int) (schedd.Config, error) {
		m, err := metrics.ByName("SLDwA")
		if err != nil {
			return schedd.Config{}, err
		}
		sched, err := dynp.New(pols, m, dynp.AdvancedDecider{})
		if err != nil {
			return schedd.Config{}, err
		}
		injectors[idx] = faultinject.New(faultinject.NewProbability(uint64(11+idx), 0.2))
		return schedd.Config{
			Scheduler:  sched,
			Clock:      schedd.NewWallClock(50000),
			QueueBound: 1024,
			MaxBatch:   64,
			ILP: &schedd.ILPConfig{
				StepConfig: solvepipe.StepConfig{Pipe: solvepipe.Config{
					Budget: 500 * time.Millisecond,
					MIP:    mip.Options{MaxNodes: 50000},
					Hook:   injectors[idx].Hook,
				}},
			},
			Metrics: obs.NewRegistry(),
		}, nil
	}
	reg := obs.NewRegistry()
	r, err := shard.New(shard.Config{
		Shards:  4,
		Machine: tr.Processors,
		// CTC widths reach 256 of 430 processors: the wide lane keeps
		// shard 0 big enough that no job is unservable.
		WideLane:          256,
		Factory:           factory,
		Metrics:           reg,
		RebalanceP99:      100,
		RebalanceInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	srv := httptest.NewServer(shard.NewHandler(r))
	defer srv.Close()
	stopped := false
	defer func() {
		if !stopped {
			r.Stop(context.Background())
		}
	}()

	sseCtx, sseCancel := context.WithCancel(context.Background())
	watch, join := watchSSE(sseCtx, t, srv.URL)

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
	t.Logf("sharded serving e2e:\n%s", res)

	if res.Accepted != nJobs {
		t.Errorf("accepted %d of %d submissions (429=%d other=%d)",
			res.Accepted, nJobs, res.Rejected429, res.RejectedOther)
	}
	if res.TransportErrors > 0 {
		t.Errorf("%d transport errors: the fabric went down under faults", res.TransportErrors)
	}
	// The zero-dropped invariant across the merged rollup: every newly
	// accepted job planned, on some shard.
	if res.DroppedAccepted != 0 {
		t.Errorf("%d accepted jobs were never planned", res.DroppedAccepted)
	}
	if res.MissingJobs > 0 {
		t.Errorf("%d accepted jobs could not be fetched back", res.MissingJobs)
	}
	// The run spans multiple shards, so the per-shard latency breakdown
	// must be populated.
	if len(res.PlanLatencyByShard) < 2 {
		t.Errorf("plan latency by shard has %d groups, want >= 2: %v",
			len(res.PlanLatencyByShard), res.PlanLatencyByShard)
	}
	faults := 0
	for _, inj := range injectors {
		faults += len(inj.Injected())
	}
	if faults == 0 {
		t.Error("fault injectors never fired")
	}
	if res.DegradedSteps == 0 {
		t.Errorf("no degraded steps despite %d injected faults", faults)
	}

	// The merged snapshot must gather all four shards.
	g := r.Gather()
	if g.Partial {
		t.Errorf("full gather came back partial (missing %v)", g.MissingShards)
	}
	if g.Counts.Planned < int64(nJobs) {
		t.Errorf("merged planned count %d < %d", g.Counts.Planned, nJobs)
	}

	// Let the stream settle, then check SSE exactly-once delivery:
	// per shard, versions strictly contiguous — a gap is a lost event,
	// a repeat is a duplicate.
	time.Sleep(300 * time.Millisecond)
	sseCancel()
	join()
	watch.mu.Lock()
	defer watch.mu.Unlock()
	if watch.err != nil {
		t.Fatalf("SSE stream decode: %v", watch.err)
	}
	if watch.frames == 0 {
		t.Fatal("SSE subscriber saw no plan-version events")
	}
	for s, vs := range watch.versions {
		for i := 1; i < len(vs); i++ {
			if vs[i] != vs[i-1]+1 {
				t.Fatalf("shard %d: version %d followed %d at event %d of %d — SSE delivery not exactly-once",
					s, vs[i], vs[i-1], i, len(vs))
			}
		}
	}
	if len(watch.versions) < 2 {
		t.Errorf("SSE saw versions from %d shards, want >= 2", len(watch.versions))
	}

	// Drain: the final merged snapshot closes the ledger.
	final, err := r.Stop(context.Background())
	stopped = true
	if err != nil {
		t.Fatal(err)
	}
	if final.Counts.Planned < int64(nJobs) {
		t.Errorf("final planned %d < accepted %d", final.Counts.Planned, nJobs)
	}
}
