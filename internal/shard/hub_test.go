package shard

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/schedd"
)

// drainEvents reads from a subscription until idle for the grace
// period, the channel closes, or the deadline passes.
func drainEvents(sub *Subscription, idle time.Duration, deadline time.Duration) []Event {
	var out []Event
	stop := time.After(deadline)
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				return out
			}
			out = append(out, ev)
		case <-time.After(idle):
			return out
		case <-stop:
			return out
		}
	}
}

// TestHubPrimerAndContiguity: a subscriber joining mid-stream gets one
// plan-version primer per published shard at its current version, then
// every later publication exactly once — per shard, versions are
// contiguous from the primer, and the subscriber sequence has no gaps.
func TestHubPrimerAndContiguity(t *testing.T) {
	reg := obs.NewRegistry()
	h := newHub(2, 64, reg)
	h.sink(0).SnapshotPublished(&schedd.Snapshot{Version: 1, Now: 10})
	h.sink(0).SnapshotPublished(&schedd.Snapshot{Version: 2, Now: 20})
	h.sink(1).SnapshotPublished(&schedd.Snapshot{Version: 1, Now: 5})

	sub := h.Subscribe(nil)
	defer sub.Close()
	// Concurrent publications after subscription.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := int64(3); v <= 10; v++ {
			h.sink(0).SnapshotPublished(&schedd.Snapshot{Version: v})
		}
		for v := int64(2); v <= 6; v++ {
			h.sink(1).SnapshotPublished(&schedd.Snapshot{Version: v})
		}
		h.sink(1).JobCompleted(schedd.JobStatus{ID: 3, State: schedd.StateDone, Width: 2})
	}()
	<-done

	evs := drainEvents(sub, 100*time.Millisecond, 5*time.Second)
	last := map[int]int64{}
	var seq int64
	jobEvents := 0
	for _, ev := range evs {
		seq++
		if ev.Seq != seq {
			t.Fatalf("subscriber sequence gap: got seq %d, want %d", ev.Seq, seq)
		}
		switch ev.Type {
		case EventPlanVersion:
			prev, seen := last[ev.Shard]
			if seen && ev.Version != prev+1 {
				t.Fatalf("shard %d: version %d after %d (lost or duplicated event)", ev.Shard, ev.Version, prev)
			}
			if !seen {
				// The primer must be the version current at subscribe time.
				want := int64(2)
				if ev.Shard == 1 {
					want = 1
				}
				if ev.Version != want {
					t.Fatalf("shard %d primer at version %d, want %d", ev.Shard, ev.Version, want)
				}
			}
			last[ev.Shard] = ev.Version
		case EventJobCompleted:
			jobEvents++
			// The job ID must arrive globalized: local 3 on shard 1 of 2.
			if ev.Job == nil || ev.Job.ID != 3*2+1 {
				t.Fatalf("completed event job = %+v, want globalized id %d", ev.Job, 3*2+1)
			}
		}
	}
	if last[0] != 10 || last[1] != 6 {
		t.Errorf("final versions %v, want shard0=10 shard1=6", last)
	}
	if jobEvents != 1 {
		t.Errorf("saw %d job-completed events, want exactly 1", jobEvents)
	}
}

func TestHubTypeFilter(t *testing.T) {
	h := newHub(1, 64, nil)
	sub := h.Subscribe(map[string]bool{EventJobPlanned: true})
	defer sub.Close()
	h.sink(0).SnapshotPublished(&schedd.Snapshot{Version: 1})
	h.sink(0).JobPlanned(schedd.JobStatus{ID: 1, State: schedd.StateWaiting})
	h.sink(0).JobCompleted(schedd.JobStatus{ID: 1, State: schedd.StateDone})
	evs := drainEvents(sub, 50*time.Millisecond, time.Second)
	if len(evs) != 1 || evs[0].Type != EventJobPlanned {
		t.Fatalf("filtered stream delivered %+v, want one job-planned", evs)
	}
	// Filtered-out events must not consume sequence numbers: the stream
	// the client sees stays gapless.
	if evs[0].Seq != 1 {
		t.Errorf("first delivered event has seq %d, want 1", evs[0].Seq)
	}
}

// TestHubOverflowDisconnects: a subscriber that stops reading is cut
// off (channel closed, counted) instead of blocking the writer loops.
func TestHubOverflowDisconnects(t *testing.T) {
	reg := obs.NewRegistry()
	h := newHub(1, 2, reg)
	sub := h.Subscribe(nil)
	for v := int64(1); v <= 5; v++ {
		h.sink(0).SnapshotPublished(&schedd.Snapshot{Version: v})
	}
	if h.Subscribers() != 0 {
		t.Errorf("overflowed subscriber still registered (%d subs)", h.Subscribers())
	}
	evs := drainEvents(sub, 50*time.Millisecond, time.Second)
	if len(evs) != 2 {
		t.Errorf("received %d buffered events, want 2", len(evs))
	}
	// The channel must be closed now.
	if _, open := <-sub.Events(); open {
		t.Error("subscription channel still open after overflow")
	}
	if got := counterValue(reg, "shard.sse.overflow_disconnects"); got != 1 {
		t.Errorf("overflow counter = %d, want 1", got)
	}
	// A healthy subscriber keeps receiving after the slow one was cut.
	sub2 := h.Subscribe(nil)
	defer sub2.Close()
	h.sink(0).SnapshotPublished(&schedd.Snapshot{Version: 6})
	evs = drainEvents(sub2, 50*time.Millisecond, time.Second)
	if len(evs) != 2 { // primer (v5) + live v6
		t.Fatalf("fresh subscriber got %d events, want 2", len(evs))
	}
	if evs[0].Version != 5 || evs[1].Version != 6 {
		t.Errorf("fresh subscriber versions %d,%d want 5,6", evs[0].Version, evs[1].Version)
	}
}

// TestHubPrimerOverflowNotRegistered: when the primer loop itself
// overflows the buffer (buffer < published shard count), the dead
// subscription must not be registered — it would sit in h.subs
// forever, inflating Subscribers() and leaking per-subscription state.
func TestHubPrimerOverflowNotRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	h := newHub(3, 1, reg)
	for i := 0; i < 3; i++ {
		h.sink(i).SnapshotPublished(&schedd.Snapshot{Version: 1})
	}
	sub := h.Subscribe(nil)
	if got := h.Subscribers(); got != 0 {
		t.Errorf("dead-at-subscribe subscription registered: Subscribers() = %d, want 0", got)
	}
	// The one buffered primer is readable, then the channel is closed.
	evs := drainEvents(sub, 50*time.Millisecond, time.Second)
	if len(evs) != 1 {
		t.Errorf("received %d primer events, want 1 (buffer size)", len(evs))
	}
	if _, open := <-sub.Events(); open {
		t.Error("subscription channel still open after primer overflow")
	}
	if got := counterValue(reg, "shard.sse.overflow_disconnects"); got != 1 {
		t.Errorf("overflow counter = %d, want 1", got)
	}
	// Close on the already-dead subscription must be a safe no-op, and
	// later publications must not resurrect or double-close it.
	sub.Close()
	h.sink(0).SnapshotPublished(&schedd.Snapshot{Version: 2})
	if got := h.Subscribers(); got != 0 {
		t.Errorf("Subscribers() = %d after close, want 0", got)
	}
}

// TestSSEEndpoint checks the wire format of GET /v1/events: id: is the
// hub-global event ID, event: the type, data: the JSON payload, and a
// ?types= filter restricts delivery.
func TestSSEEndpoint(t *testing.T) {
	r := newTestRouter(t, Config{
		Shards: 2, Machine: 8,
		Factory: basicFactory(t, schedd.NewManualClock(0), nil),
	})
	r.Start()
	defer stopRouter(t, r)
	srv := httptest.NewServer(NewHandler(r))
	defer srv.Close()

	// Publish at least one version per shard before subscribing so the
	// primers are guaranteed.
	for i := 0; i < 4; i++ {
		resp := mustSubmit(t, r, schedd.SubmitRequest{Width: 1, Estimate: 10})
		waitState(t, r, resp.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/v1/events?types=plan-version", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}

	type frame struct {
		id    string
		event string
		data  string
	}
	var frames []frame
	var cur frame
	sc := bufio.NewScanner(resp.Body)
	for len(frames) < 2 && sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.data != "":
			frames = append(frames, cur)
			cur = frame{}
		}
	}
	cancel()
	if len(frames) < 2 {
		t.Fatalf("read %d SSE frames, want 2 primers (one per shard): %v", len(frames), sc.Err())
	}
	shardsSeen := map[int]bool{}
	for i, f := range frames {
		if f.event != EventPlanVersion {
			t.Errorf("frame %d: event %q leaked through types filter", i, f.event)
		}
		var ev Event
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatalf("frame %d data %q: %v", i, f.data, err)
		}
		if wantID := strconv.FormatUint(ev.ID, 10); f.id != wantID || ev.ID == 0 {
			t.Errorf("frame %d id %q, want the hub-global ID %q (nonzero)", i, f.id, wantID)
		}
		if ev.Version < 1 {
			t.Errorf("frame %d: primer version %d < 1", i, ev.Version)
		}
		shardsSeen[ev.Shard] = true
	}
	if !shardsSeen[0] || !shardsSeen[1] {
		t.Errorf("primers covered shards %v, want both", shardsSeen)
	}
}

// recordingSink keeps the snapshot versions and planned job IDs a
// factory-supplied sink receives.
type recordingSink struct {
	mu       sync.Mutex
	versions []int64
	planned  []int
}

func (s *recordingSink) SnapshotPublished(snap *schedd.Snapshot) {
	s.mu.Lock()
	s.versions = append(s.versions, snap.Version)
	s.mu.Unlock()
}
func (s *recordingSink) JobPlanned(st schedd.JobStatus) {
	s.mu.Lock()
	s.planned = append(s.planned, st.ID)
	s.mu.Unlock()
}
func (s *recordingSink) JobCompleted(schedd.JobStatus)       {}
func (s *recordingSink) PlanImproved(schedd.PlanImprovement) {}

// TestFactorySinkSeesEveryEvent: the router puts the hub in front of a
// factory's own event sink instead of replacing it, so the factory's
// sink still sees every published snapshot, in version order.
func TestFactorySinkSeesEveryEvent(t *testing.T) {
	rec := &recordingSink{}
	r := newTestRouter(t, Config{
		Shards: 1, Machine: 8,
		Factory: basicFactory(t, schedd.NewManualClock(0), func(_ int, cfg *schedd.Config) { cfg.Events = rec }),
	})
	sub := r.Hub().Subscribe(map[string]bool{EventJobPlanned: true})
	defer sub.Close()
	r.Start()
	resp := mustSubmit(t, r, schedd.SubmitRequest{Width: 2, Estimate: 10})
	waitState(t, r, resp.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := r.Stop(ctx)
	if err != nil {
		t.Fatal(err)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.versions) == 0 {
		t.Fatal("factory sink saw no snapshots")
	}
	for i, v := range rec.versions {
		if i > 0 && v != rec.versions[i-1]+1 {
			t.Fatalf("factory sink versions %v are not contiguous", rec.versions)
		}
	}
	if last := rec.versions[len(rec.versions)-1]; last != final.PerShard[0].Version {
		t.Errorf("factory sink's last version %d, final snapshot version %d", last, final.PerShard[0].Version)
	}
	if len(rec.planned) != 1 || rec.planned[0] != resp.ID {
		t.Errorf("factory sink planned %v, want [%d]", rec.planned, resp.ID)
	}
	if evs := drainEvents(sub, 50*time.Millisecond, time.Second); len(evs) != 1 || evs[0].Job == nil || evs[0].Job.ID != resp.ID {
		t.Errorf("hub delivered %+v, want one job-planned event for job %d", evs, resp.ID)
	}
}
