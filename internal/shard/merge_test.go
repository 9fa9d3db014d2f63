package shard

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/schedd"
)

// TestGatherMerge merges two live shards: counts sum, schedule entries
// come back with globalized IDs in (start, ID) order, and the per-shard
// views carry each shard's own version.
func TestGatherMerge(t *testing.T) {
	r := newTestRouter(t, Config{
		Shards: 2, Machine: 8,
		Factory: basicFactory(t, schedd.NewManualClock(0), nil),
	})
	r.Start()
	defer stopRouter(t, r)

	// Pin submissions to each core directly so both shards hold work.
	perShard := []int{3, 2}
	for idx, n := range perShard {
		for i := 0; i < n; i++ {
			resp, err := r.Core(idx).Submit(schedd.SubmitRequest{Width: 4, Estimate: 50})
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, r, r.global(idx, resp.ID))
		}
	}

	g := r.Gather()
	if g.Partial || len(g.MissingShards) != 0 {
		t.Fatalf("partial merge with all shards live: %+v", g)
	}
	if g.Shards != 2 || g.Machine != 8 {
		t.Errorf("merged shape shards=%d machine=%d", g.Shards, g.Machine)
	}
	if g.Counts.Submitted != 5 || g.Counts.Planned != 5 {
		t.Errorf("merged counts submitted=%d planned=%d, want 5/5", g.Counts.Submitted, g.Counts.Planned)
	}
	// Width 4 on 4-wide sub-machines: jobs serialize per shard, so the
	// waiting ones appear in the merged schedule with globalized IDs.
	seen := map[int]bool{}
	var prevStart, prevID int64 = -1, -1
	for _, e := range g.Schedule {
		if seen[e.JobID] {
			t.Fatalf("job %d appears twice in merged schedule", e.JobID)
		}
		seen[e.JobID] = true
		if _, _, ok := r.locate(e.JobID); !ok {
			t.Errorf("schedule entry id %d is not a valid global id", e.JobID)
		}
		if e.Start < prevStart || (e.Start == prevStart && int64(e.JobID) <= prevID) {
			t.Errorf("merged schedule out of (start, id) order at job %d", e.JobID)
		}
		prevStart, prevID = e.Start, int64(e.JobID)
	}
	for i, v := range g.PerShard {
		if v.Missing || v.Version < 1 {
			t.Errorf("shard %d view missing=%v version=%d", i, v.Missing, v.Version)
		}
		if v.Counts.Submitted != int64(perShard[i]) {
			t.Errorf("shard %d view submitted=%d, want %d", i, v.Counts.Submitted, perShard[i])
		}
	}
	// Nothing completes on the stopped clock, so ActiveJobs lists all
	// five jobs once, sorted by global ID, each with its owning shard.
	jobs := r.ActiveJobs()
	if len(jobs) != 5 {
		t.Fatalf("ActiveJobs returned %d jobs, want 5", len(jobs))
	}
	for k, st := range jobs {
		if k > 0 && st.ID <= jobs[k-1].ID {
			t.Errorf("ActiveJobs out of ID order at job %d", st.ID)
		}
		if idx, _, ok := r.locate(st.ID); !ok || idx != st.Shard {
			t.Errorf("job %d reports shard %d, its global ID says %d", st.ID, st.Shard, idx)
		}
		if got, ok := r.Job(st.ID); !ok || got.ID != st.ID {
			t.Errorf("job %d does not resolve to itself: %+v", st.ID, got)
		}
	}
}

// TestGatherPartialOnStalledShard: a shard whose snapshot fetch hangs
// degrades the merge to partial=true within the gather deadline instead
// of blocking the read path.
func TestGatherPartialOnStalledShard(t *testing.T) {
	reg := obs.NewRegistry()
	r := newTestRouter(t, Config{
		Shards: 2, Machine: 8, Metrics: reg, GatherTimeout: 30 * time.Millisecond,
		Factory: basicFactory(t, schedd.NewManualClock(0), nil),
	})
	r.Start()
	defer stopRouter(t, r)
	resp := mustSubmit(t, r, schedd.SubmitRequest{Width: 1, Estimate: 10})
	waitState(t, r, resp.ID)

	// Stall shard 1's snapshot fetch (the test seam Gather reads).
	release := make(chan struct{})
	orig := r.fetchSnap[1]
	r.fetchSnap[1] = func() *schedd.Snapshot {
		<-release
		return orig()
	}
	defer close(release)

	start := time.Now()
	g := r.Gather()
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("gather with stalled shard took %v", el)
	}
	if !g.Partial {
		t.Fatal("merge with stalled shard not marked partial")
	}
	if len(g.MissingShards) != 1 || g.MissingShards[0] != 1 {
		t.Errorf("missing shards %v, want [1]", g.MissingShards)
	}
	if !g.PerShard[1].Missing {
		t.Error("stalled shard's view not marked missing")
	}
	// The live shard's data still made it into the merge.
	if g.PerShard[0].Missing || g.Counts.Submitted != 1 {
		t.Errorf("live shard dropped from partial merge: %+v", g.PerShard[0])
	}
	if got := counterValue(reg, "shard.gather.partials"); got != 1 {
		t.Errorf("shard.gather.partials = %d, want 1", got)
	}
}

// TestMergedMetricsExposition: the merged scrape must relabel per-core
// series with shard labels, sum the shard="all" rollup, and render a
// valid Prometheus exposition (families adjacent, one TYPE line each).
func TestMergedMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	r := newTestRouter(t, Config{
		Shards: 2, Machine: 8, Metrics: reg,
		Factory: basicFactory(t, schedd.NewManualClock(0), nil),
	})
	r.Start()
	defer stopRouter(t, r)
	for idx := 0; idx < 2; idx++ {
		for i := 0; i < idx+1; i++ {
			resp, err := r.Core(idx).Submit(schedd.SubmitRequest{Width: 1, Estimate: 10})
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, r, r.global(idx, resp.ID))
		}
	}

	ms := r.MergedMetrics()
	byKey := map[string]obs.Metric{}
	for _, m := range ms {
		byKey[m.Name+"|"+labelKey(m.Labels)] = m
	}
	// The rollup must equal the sum of the per-shard series: 1 + 2.
	shardVal := func(v string) int64 {
		m, ok := byKey["schedd.submits|"+labelKey([]obs.Label{{Key: "shard", Value: v}})]
		if !ok {
			t.Fatalf("no schedd.submits series for shard=%q", v)
		}
		return m.Value
	}
	if all, s0, s1 := shardVal("all"), shardVal("0"), shardVal("1"); all != 3 || s0+s1 != 3 {
		t.Errorf("schedd.submits all=%d shard0=%d shard1=%d, want 3 = 1+2", all, s0, s1)
	}
	// Router-level instruments pass through unlabeled.
	if _, ok := byKey["shard.routed.narrow|"]; !ok {
		t.Error("router-level counter missing from merged scrape")
	}
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, ms); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		t.Errorf("merged exposition invalid: %v\n%s", err, buf.String())
	}
}
