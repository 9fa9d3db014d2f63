// Anytime serving across shards: Last-Event-ID resume on the hub,
// per-shard background optimizers surfacing plan-improved events
// through the SSE fabric while the rebalancer runs, and deadline
// rejections fanning out across every shard's digital twin.
package shard

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dynp"
	"repro/internal/metrics"
	"repro/internal/mip"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/schedd"
	"repro/internal/solvepipe"
)

// TestSubscribeFromReplay: a cursor still covered by the replay ring
// resumes exactly-once — every event past it, in publication order, no
// primers; a cursor the ring cannot cover falls back to a fresh primed
// stream.
func TestSubscribeFromReplay(t *testing.T) {
	h := newHub(2, 256, obs.NewRegistry())
	for v := int64(1); v <= 10; v++ {
		h.sink(int(v) % 2).SnapshotPublished(&schedd.Snapshot{Version: v, Now: v * 10})
	}

	// Resume from the middle: exactly events 5..10, ordered, resumed.
	sub := h.SubscribeFrom(nil, 4)
	if !sub.Resumed() {
		t.Error("in-ring cursor did not resume")
	}
	evs := drainEvents(sub, 50*time.Millisecond, time.Second)
	if len(evs) != 6 {
		t.Fatalf("replayed %d events after cursor 4, want 6", len(evs))
	}
	for i, ev := range evs {
		if ev.ID != uint64(5+i) {
			t.Errorf("replay position %d has ID %d, want %d", i, ev.ID, 5+i)
		}
	}
	// Live events keep flowing after the replay, IDs contiguous.
	h.sink(0).SnapshotPublished(&schedd.Snapshot{Version: 11})
	evs = drainEvents(sub, 50*time.Millisecond, time.Second)
	if len(evs) != 1 || evs[0].ID != 11 {
		t.Fatalf("live event after replay = %+v, want ID 11", evs)
	}
	sub.Close()

	// Cursor at the head: nothing to replay, but still a resume (no
	// duplicate primers for a client that merely reconnected quickly).
	head := h.SubscribeFrom(nil, 11)
	if !head.Resumed() {
		t.Error("head cursor did not resume")
	}
	if evs := drainEvents(head, 50*time.Millisecond, time.Second); len(evs) != 0 {
		t.Errorf("head cursor replayed %d events, want 0", len(evs))
	}
	head.Close()

	// A cursor from the future (e.g. a different hub incarnation) can't
	// be honored: fall back to primers so the client rebaselines.
	future := h.SubscribeFrom(nil, 99)
	if future.Resumed() {
		t.Error("future cursor claimed to resume")
	}
	evs = drainEvents(future, 50*time.Millisecond, time.Second)
	if len(evs) != 2 { // one primer per shard
		t.Fatalf("future cursor got %d events, want 2 primers", len(evs))
	}
	for _, ev := range evs {
		if ev.ID != 11 {
			t.Errorf("primer carries cursor %d, want current head 11", ev.ID)
		}
	}
	future.Close()
}

// TestSubscribeFromAgedOutCursor: once the ring has trimmed past a
// cursor, the resume degrades to the primer baseline instead of
// silently skipping the lost events.
func TestSubscribeFromAgedOutCursor(t *testing.T) {
	h := newHub(1, 8, nil)
	for v := int64(1); v <= int64(ringCap)+10; v++ {
		h.sink(0).SnapshotPublished(&schedd.Snapshot{Version: v})
	}
	sub := h.SubscribeFrom(nil, 3) // trimmed out of the ring long ago
	defer sub.Close()
	if sub.Resumed() {
		t.Error("aged-out cursor claimed to resume")
	}
	evs := drainEvents(sub, 50*time.Millisecond, time.Second)
	if len(evs) != 1 {
		t.Fatalf("aged-out cursor got %d events, want 1 primer", len(evs))
	}
	if evs[0].Version != int64(ringCap)+10 {
		t.Errorf("primer version %d, want the current %d", evs[0].Version, ringCap+10)
	}
}

// anytimeFactory builds per-shard cores with the background optimizer
// on and the interval solver starved, so the optimizer is the only
// source of plan improvements (each shard mirrors the single-core SLO
// drill's setup).
func anytimeFactory(t testing.TB, accel float64) CoreFactory {
	return func(idx, machine int) (schedd.Config, error) {
		m, err := metrics.ByName("SLDwA")
		if err != nil {
			return schedd.Config{}, err
		}
		sched, err := dynp.New([]policy.Policy{policy.FCFS{}}, m, dynp.AdvancedDecider{})
		if err != nil {
			return schedd.Config{}, err
		}
		return schedd.Config{
			Scheduler:  sched,
			Clock:      schedd.NewWallClock(accel),
			QueueBound: 64,
			MaxBatch:   16,
			ILP: &schedd.ILPConfig{
				StepConfig: solvepipe.StepConfig{Pipe: solvepipe.Config{
					Budget: time.Millisecond,
					MIP:    mip.Options{MaxNodes: 200000},
				}},
				Anytime:       true,
				AnytimeBudget: time.Second,
			},
			Metrics: obs.NewRegistry(),
		}, nil
	}
}

// TestShardedAnytimePlanImproved: every shard runs its own background
// optimizer; adopted incumbents must surface as plan-improved events on
// the shared SSE hub — with the rebalancer live — and no job may be
// lost while plans keep being replaced underneath the queue.
func TestShardedAnytimePlanImproved(t *testing.T) {
	r := newTestRouter(t, Config{
		Shards: 2, Machine: 16,
		Factory:           anytimeFactory(t, 2000),
		RebalanceP99:      1,
		RebalanceInterval: 50 * time.Millisecond,
	})
	r.Start()
	defer stopRouter(t, r)

	sub := r.Hub().Subscribe(map[string]bool{EventPlanImproved: true})
	defer sub.Close()

	// Full-shard-width jobs with varied estimates: each shard's queue is
	// a sequential backlog whose FCFS order the optimizer can strictly
	// improve (SPT), so both optimizers have real incumbents to land.
	const nJobs = 16
	ids := make([]int, 0, nJobs)
	for i := 0; i < nJobs; i++ {
		est := int64(100 + (i*397)%900)
		resp := mustSubmit(t, r, schedd.SubmitRequest{
			Width: 8, Estimate: est, Runtime: est,
		})
		ids = append(ids, resp.ID)
		time.Sleep(10 * time.Millisecond)
	}

	// Wait for at least one adopted incumbent to stream out.
	deadline := time.After(20 * time.Second)
	var improved []Event
	for len(improved) == 0 {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				t.Fatal("subscription dropped before any plan-improved event")
			}
			improved = append(improved, ev)
		case <-deadline:
			t.Fatal("no plan-improved event within 20s")
		}
	}
	for _, ev := range improved {
		if ev.Type != EventPlanImproved || ev.Improvement == nil {
			t.Fatalf("malformed plan-improved event: %+v", ev)
		}
		if ev.Improvement.Jobs <= 0 || ev.Improvement.Objective <= 0 {
			t.Errorf("degenerate improvement payload: %+v", ev.Improvement)
		}
		if ev.Shard < 0 || ev.Shard >= 2 {
			t.Errorf("improvement from unknown shard %d", ev.Shard)
		}
	}

	// The metrics roll-up must agree that incumbents were adopted.
	adopted := int64(0)
	for i := 0; i < r.Shards(); i++ {
		adopted += r.Core(i).AnytimeAdopted()
	}
	if adopted == 0 {
		t.Error("plan-improved events streamed but no core counts an adoption")
	}

	// No job lost under adoption + rebalancing: every submission reaches
	// a planned (or later) state.
	for _, id := range ids {
		waitState(t, r, id)
	}
}

// TestShardedSLORejection: when every shard's twin predicts a start
// past the deadline, the router's fan-out surfaces the SLO rejection —
// not a generic queue-full — so clients can tell backlog from a
// hopeless deadline.
func TestShardedSLORejection(t *testing.T) {
	clock := schedd.NewManualClock(0)
	r := newTestRouter(t, Config{
		Shards: 2, Machine: 16,
		Factory: basicFactory(t, clock, nil),
	})
	r.Start()
	defer stopRouter(t, r)

	// Occupy both shards with a long full-width job each.
	for i := 0; i < 2; i++ {
		resp := mustSubmit(t, r, schedd.SubmitRequest{Width: 8, Estimate: 10000})
		waitState(t, r, resp.ID)
	}

	_, err := r.Submit(context.Background(), schedd.SubmitRequest{
		Width: 8, Estimate: 100, Deadline: 500,
	})
	if err == nil {
		t.Fatal("deadline submission admitted despite both shards being busy for 10000s")
	}
	var bp *BackpressureError
	if !errors.As(err, &bp) {
		t.Fatalf("expected BackpressureError, got %T: %v", err, err)
	}
	if bp.Shards != 2 {
		t.Errorf("tried %d shards, want 2", bp.Shards)
	}
	if !strings.Contains(err.Error(), "slo_deadline") {
		t.Errorf("rejection does not name the SLO cause: %v", err)
	}
	if bp.RetryAfter <= 0 {
		t.Errorf("SLO rejection carries no Retry-After hint: %v", bp.RetryAfter)
	}

	// A submission without a deadline is still admitted: the twin only
	// turns away jobs that asked for a guarantee it cannot give.
	mustSubmit(t, r, schedd.SubmitRequest{Width: 8, Estimate: 100})
}

// TestShardedHTTPDeadlineRejection: a deadline_s in the POST /v1/jobs
// body reaches every shard's digital twin, so a sharded daemon answers an
// unmeetable deadline with the same 429 a direct Router.Submit gets.
func TestShardedHTTPDeadlineRejection(t *testing.T) {
	clock := schedd.NewManualClock(0)
	r := newTestRouter(t, Config{
		Shards: 2, Machine: 16,
		Factory: basicFactory(t, clock, nil),
	})
	r.Start()
	defer stopRouter(t, r)
	for i := 0; i < 2; i++ {
		resp := mustSubmit(t, r, schedd.SubmitRequest{Width: 8, Estimate: 10000})
		waitState(t, r, resp.ID)
	}
	srv := httptest.NewServer(NewHandler(r))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"width":8,"estimate_s":100,"deadline_s":500}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "slo_deadline") {
		t.Errorf("body does not name the SLO cause: %s", body)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
}
