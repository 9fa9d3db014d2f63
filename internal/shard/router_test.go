package shard

import (
	"context"
	"errors"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/schedd"
)

func TestPartition(t *testing.T) {
	cases := []struct {
		shards, machine, wide int
		want                  []int
	}{
		{4, 430, 0, []int{108, 108, 107, 107}},
		{4, 430, 256, []int{256, 58, 58, 58}},
		{3, 10, 0, []int{4, 3, 3}},
		{1, 430, 0, []int{430}},
		{1, 430, 430, []int{430}},
		{2, 7, 5, []int{5, 2}},
	}
	for _, c := range cases {
		r := newTestRouter(t, Config{
			Shards: c.shards, Machine: c.machine, WideLane: c.wide,
			Factory: basicFactory(t, schedd.NewManualClock(0), nil),
		})
		got := r.Machines()
		total := 0
		for i, m := range got {
			total += m
			if m != c.want[i] {
				t.Errorf("shards=%d machine=%d wide=%d: machines %v, want %v",
					c.shards, c.machine, c.wide, got, c.want)
				break
			}
		}
		if total != c.machine {
			t.Errorf("partition of %d sums to %d", c.machine, total)
		}
	}
	// A wide lane must fit the machine, leave every other shard a
	// processor, and on one shard cover the whole machine: a 1-shard
	// lane of 500 on 430 would overbook, one of 256 would strand 174.
	for _, c := range []struct{ shards, machine, wide int }{
		{4, 10, 8},
		{2, 8, 8},
		{1, 430, 500},
		{2, 430, 500},
		{4, 430, 500},
		{1, 430, 256},
		{1, 430, 429},
	} {
		if r, err := New(Config{
			Shards: c.shards, Machine: c.machine, WideLane: c.wide,
			Factory: basicFactory(t, schedd.NewManualClock(0), nil),
		}); err == nil {
			t.Errorf("shards=%d machine=%d wide=%d: machines %v, want error", c.shards, c.machine, c.wide, r.Machines())
		}
	}
	if _, err := New(Config{Shards: 0, Machine: 4, Factory: basicFactory(t, schedd.NewManualClock(0), nil)}); err == nil {
		t.Error("0 shards: want error")
	}
	if _, err := New(Config{Shards: 4, Machine: 4, Factory: nil}); err == nil {
		t.Error("nil factory: want error")
	}
}

func TestGlobalIDRoundtrip(t *testing.T) {
	r := newTestRouter(t, Config{
		Shards: 4, Machine: 16,
		Factory: basicFactory(t, schedd.NewManualClock(0), nil),
	})
	for shard := 0; shard < 4; shard++ {
		for local := 1; local <= 100; local++ {
			gid := r.global(shard, local)
			s, l, ok := r.locate(gid)
			if !ok || s != shard || l != local {
				t.Fatalf("global(%d,%d)=%d located as (%d,%d,%v)", shard, local, gid, s, l, ok)
			}
		}
	}
	// IDs below the shard count can never be minted (locals start at 1).
	for gid := 0; gid < 4; gid++ {
		if _, _, ok := r.locate(gid); ok {
			t.Errorf("locate(%d) = ok, want invalid", gid)
		}
	}
}

func TestWidthValidation(t *testing.T) {
	r := newTestRouter(t, Config{
		Shards: 4, Machine: 430, WideLane: 256,
		Factory: basicFactory(t, schedd.NewManualClock(0), nil),
	})
	var ve *schedd.ValidationError
	// 256 fits the wide lane even though an even split (107) would not.
	// (Cores are unstarted: admission only, nothing consumes the queue.)
	if _, err := r.Submit(context.Background(), schedd.SubmitRequest{Width: 256, Estimate: 10}); err != nil {
		t.Errorf("width 256 with wide lane 256: %v", err)
	}
	if _, err := r.Submit(context.Background(), schedd.SubmitRequest{Width: 257, Estimate: 10}); !errors.As(err, &ve) {
		t.Errorf("width 257: got %v, want ValidationError", err)
	}
	if _, err := r.Submit(context.Background(), schedd.SubmitRequest{Width: 0, Estimate: 10}); !errors.As(err, &ve) {
		t.Errorf("width 0: got %v, want ValidationError", err)
	}
}

func TestKeyedRoutingStableAndDeduplicated(t *testing.T) {
	reg := obs.NewRegistry()
	r := newTestRouter(t, Config{
		Shards: 4, Machine: 16, Metrics: reg,
		Factory: basicFactory(t, schedd.NewManualClock(0), nil),
	})
	r.Start()
	defer stopRouter(t, r)

	for i := 0; i < 16; i++ {
		key := fmtKey(i)
		want := r.keyShard(key, 1)
		first := mustSubmit(t, r, schedd.SubmitRequest{Width: 1, Estimate: 5, IdempotencyKey: key})
		if first.Shard != want || first.ID%4 != want {
			t.Fatalf("key %q: routed to shard %d (id %d), want %d", key, first.Shard, first.ID, want)
		}
		// A resubmission with the same key must meet the original
		// admission's dedup entry — same shard, same global ID.
		again := mustSubmit(t, r, schedd.SubmitRequest{Width: 1, Estimate: 5, IdempotencyKey: key})
		if !again.Deduplicated {
			t.Fatalf("key %q: resubmission not deduplicated", key)
		}
		if again.ID != first.ID {
			t.Fatalf("key %q: resubmission id %d != original %d", key, again.ID, first.ID)
		}
	}
}

// TestKeyedWideRouting: a keyed job wider than some sub-machines must
// pin — stably — to a shard that fits it. With the naive hash(key)%N
// pin, most keys wider than the narrow shards were permanently
// unservable (400 from the pinned core) even though the wide lane had
// room.
func TestKeyedWideRouting(t *testing.T) {
	r := newTestRouter(t, Config{
		Shards: 4, Machine: 430, WideLane: 256, // machines [256 58 58 58]
		Factory: basicFactory(t, schedd.NewManualClock(0), nil),
	})
	// Every key must admit a width-100 job, and always on shard 0 (the
	// only fitting shard). Cores are unstarted: admission only.
	for i := 0; i < 32; i++ {
		key := fmtKey(i)
		if got := r.keyShard(key, 100); got != 0 {
			t.Fatalf("key %q width 100: pinned to shard %d, want 0 (machines %v)", key, got, r.Machines())
		}
		resp, err := r.Submit(context.Background(), schedd.SubmitRequest{Width: 100, Estimate: 10, IdempotencyKey: key})
		if err != nil {
			t.Fatalf("keyed width-100 submit (key %q): %v", key, err)
		}
		if resp.Shard != 0 {
			t.Fatalf("key %q width 100: landed on shard %d, want 0", key, resp.Shard)
		}
		again, err := r.Submit(context.Background(), schedd.SubmitRequest{Width: 100, Estimate: 10, IdempotencyKey: key})
		if err != nil || !again.Deduplicated || again.ID != resp.ID {
			t.Fatalf("key %q: resubmission %+v err=%v, want dedup onto id %d", key, again, err, resp.ID)
		}
	}
	// Narrow keyed jobs keep the full fitting set: the pin equals the
	// legacy hash(key)%N, so pre-existing keys still route unchanged.
	for i := 0; i < 32; i++ {
		h := fnvOf(fmtKey(i))
		if got, want := r.keyShard(fmtKey(i), 1), int(h%4); got != want {
			t.Fatalf("key %q width 1: pinned to shard %d, want hash%%N = %d", fmtKey(i), got, want)
		}
	}
}

// TestReservedMigrationKeyRejected: client keys in the migration
// protocol's synthetic namespace must be refused at the front end — a
// client key like "mig:0:7" landing on the migration's target shard
// would dedup a user job against a migrated one.
func TestReservedMigrationKeyRejected(t *testing.T) {
	r := newTestRouter(t, Config{
		Shards: 2, Machine: 8,
		Factory: basicFactory(t, schedd.NewManualClock(0), nil),
	})
	var ve *schedd.ValidationError
	_, err := r.Submit(context.Background(), schedd.SubmitRequest{Width: 1, Estimate: 10, IdempotencyKey: "mig:0:7"})
	if !errors.As(err, &ve) {
		t.Fatalf("reserved key: got %v, want ValidationError", err)
	}
	// A key merely containing (not starting with) the prefix is fine.
	if _, err := r.Submit(context.Background(), schedd.SubmitRequest{Width: 1, Estimate: 10, IdempotencyKey: "client-mig:0:7"}); err != nil {
		t.Fatalf("non-prefix key rejected: %v", err)
	}
}

func fnvOf(key string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return h.Sum32()
}

func TestJobLookupAcrossShards(t *testing.T) {
	r := newTestRouter(t, Config{
		Shards: 4, Machine: 16,
		Factory: basicFactory(t, schedd.NewManualClock(0), nil),
	})
	r.Start()
	defer stopRouter(t, r)

	ids := make([]int, 0, 8)
	for i := 0; i < 8; i++ {
		resp := mustSubmit(t, r, schedd.SubmitRequest{Width: 2, Estimate: 10})
		ids = append(ids, resp.ID)
	}
	for _, gid := range ids {
		st := waitState(t, r, gid)
		if st.ID != gid {
			t.Errorf("job %d: status reports id %d", gid, st.ID)
		}
		if st.Shard != gid%4 {
			t.Errorf("job %d: status reports shard %d, want %d", gid, st.Shard, gid%4)
		}
	}
	if _, ok := r.Job(999983); ok {
		t.Error("lookup of never-issued id succeeded")
	}
}

// TestRetryAfterMaxAcrossShards drives every candidate shard into
// backpressure and checks the 429's Retry-After is the maximum hint
// across the shards tried, not the last one's. Cores stay unstarted so
// admission state is fully deterministic.
func TestRetryAfterMaxAcrossShards(t *testing.T) {
	reg := obs.NewRegistry()
	r := newTestRouter(t, Config{
		Shards: 2, Machine: 8, Metrics: reg,
		Factory: basicFactory(t, schedd.NewManualClock(0), func(idx int, cfg *schedd.Config) {
			if idx == 0 {
				cfg.QueueBound = 1 // second admit: ErrQueueFull, Retry-After 1s
			} else {
				cfg.QueueBound = 8
				cfg.RatePerSource = 0.0001 // second token ~10000s away
				cfg.Burst = 1
			}
		}),
	})
	// Fill shard 0's queue and spend shard 1's only token.
	mustSubmit(t, r, schedd.SubmitRequest{Width: 1, Estimate: 5, Source: "src"})
	mustSubmit(t, r, schedd.SubmitRequest{Width: 1, Estimate: 5, Source: "src"})

	_, err := r.Submit(context.Background(), schedd.SubmitRequest{Width: 1, Estimate: 5, Source: "src"})
	var bp *BackpressureError
	if !errors.As(err, &bp) {
		t.Fatalf("got %v, want BackpressureError", err)
	}
	if bp.Shards != 2 {
		t.Errorf("tried %d shards, want 2", bp.Shards)
	}
	// The max across {queue-full 1s, rate-limit ~10000s} must be the
	// rate limiter's wait, regardless of which shard was tried last.
	if bp.RetryAfter <= time.Second {
		t.Errorf("RetryAfter %v: max across shards not propagated", bp.RetryAfter)
	}
	if got := counterValue(reg, "shard.submit.backpressured"); got != 1 {
		t.Errorf("shard.submit.backpressured = %d, want 1", got)
	}
}

// TestPlacementWideVsNarrow checks the two placement regimes: wide jobs
// spread to the least-loaded fitting shard, narrow jobs pack onto the
// busiest shard within the load band (and spread when the band is 0).
func TestPlacementWideVsNarrow(t *testing.T) {
	r := newTestRouter(t, Config{
		Shards: 2, Machine: 20, PackSlack: 8,
		Factory: basicFactory(t, schedd.NewManualClock(0), nil),
	})
	r.Start()
	defer stopRouter(t, r)

	// Load shard 0 with one planned job (active=1, score 1).
	resp := mustSubmit(t, r, schedd.SubmitRequest{Width: 1, Estimate: 100})
	first := resp.ID % 2
	waitState(t, r, resp.ID)

	// Wide (width*2 > 10): must go to the emptier shard.
	order, wide := r.placeOrder(6)
	if !wide {
		t.Fatal("width 6 of max 10 not classified wide")
	}
	if order[0] == first {
		t.Errorf("wide job ordered onto loaded shard %d first", first)
	}
	// Narrow within the band: pack onto the shard with more active work.
	order, wide = r.placeOrder(1)
	if wide {
		t.Fatal("width 1 classified wide")
	}
	if order[0] != first {
		t.Errorf("narrow job (band 8) ordered to shard %d, want busy shard %d", order[0], first)
	}
	// Collapse the band: the busy shard falls outside it and narrow jobs
	// spread by load again.
	r.cfg.PackSlack = 0
	order, _ = r.placeOrder(1)
	if order[0] == first {
		t.Errorf("narrow job (band 0) still ordered to busy shard %d", first)
	}
	// A width only the bigger shard can fit never lists the smaller one.
	r2 := newTestRouter(t, Config{
		Shards: 2, Machine: 12, WideLane: 8,
		Factory: basicFactory(t, schedd.NewManualClock(0), nil),
	})
	order, _ = r2.placeOrder(6)
	if len(order) != 1 || order[0] != 0 {
		t.Errorf("width 6 on machines [8 4]: candidates %v, want [0]", order)
	}
}
