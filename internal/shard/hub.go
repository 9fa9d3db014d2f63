// The streaming event hub: each core's writer loop pushes its state
// changes (snapshot publications, first plans, completions) into the
// hub via the schedd.EventSink hooks, and the hub fans them out to SSE
// subscribers. Delivery is exactly-once per subscriber: subscription
// happens under the hub lock, priming the stream with one plan-version
// event per shard at its current version, and every later publication
// reaches the subscriber exactly once, in order — per shard, versions
// are contiguous from the primer on. The sinks run on the writer
// goroutines, so the hub never blocks: a subscriber whose buffer fills
// is disconnected (and counted) instead of backpressuring a writer.
package shard

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/schedd"
)

// Event types of the /v1/events stream.
const (
	// EventPlanVersion announces a new published snapshot version of one
	// shard (the streaming replacement for polling /v1/schedule).
	EventPlanVersion = "plan-version"
	// EventJobPlanned announces a job's first adopted plan.
	EventJobPlanned = "job-planned"
	// EventJobCompleted announces a job's completion.
	EventJobCompleted = "job-completed"
	// EventPlanImproved announces that a shard's background anytime
	// optimizer replaced the live plan with a better incumbent.
	EventPlanImproved = "plan-improved"
)

// ringCap bounds the replay ring backing Last-Event-ID resume. A client
// that reconnects within the last ringCap hub-wide events resumes
// exactly-once; older cursors fall back to a fresh primed stream.
const ringCap = 4096

// Event is one SSE payload. ID is the hub-global stream position
// (echoed as the SSE id: field, the Last-Event-ID resume cursor); Seq
// is the per-subscriber delivery position, contiguous from 1.
type Event struct {
	ID    uint64 `json:"id"`
	Seq   int64  `json:"seq"`
	Type  string `json:"type"`
	Shard int    `json:"shard"`
	// Version/Now/Degraded describe the published snapshot
	// (plan-version and plan-improved events).
	Version  int64 `json:"version,omitempty"`
	Now      int64 `json:"now,omitempty"`
	Degraded bool  `json:"degraded,omitempty"`
	// Job carries the subject of job-planned / job-completed events,
	// with the ID already globalized.
	Job *JobEvent `json:"job,omitempty"`
	// Improvement carries the adopted incumbent of plan-improved events.
	Improvement *schedd.PlanImprovement `json:"improvement,omitempty"`
}

// JobEvent is the job payload of a job-planned or job-completed event.
type JobEvent struct {
	ID            int             `json:"id"`
	State         schedd.JobState `json:"state"`
	Width         int             `json:"width"`
	PlannedStart  int64           `json:"planned_start"`
	Start         int64           `json:"start,omitempty"`
	End           int64           `json:"end,omitempty"`
	PlanLatencyMs float64         `json:"plan_latency_ms,omitempty"`
	TraceID       string          `json:"trace_id,omitempty"`
}

// Hub fans writer-loop events out to subscribers.
type Hub struct {
	n      int
	buffer int

	mu       sync.Mutex
	versions []int64 // last published snapshot version per shard
	nows     []int64
	degraded []bool
	subs     map[*Subscription]struct{}
	nextID   uint64  // hub-global event ID of the last publication
	ring     []Event // last ringCap publications, for Last-Event-ID replay

	vEvents    *obs.CounterVec // by type
	cOverflows *obs.Counter
	cSubs      *obs.Counter
}

func newHub(n, buffer int, reg *obs.Registry) *Hub {
	h := &Hub{
		n:        n,
		buffer:   buffer,
		versions: make([]int64, n),
		nows:     make([]int64, n),
		degraded: make([]bool, n),
		subs:     map[*Subscription]struct{}{},
	}
	if reg != nil {
		h.vEvents = reg.CounterVec("shard.events", "type")
		h.cOverflows = reg.Counter("shard.sse.overflow_disconnects")
		h.cSubs = reg.Counter("shard.sse.subscribes")
	}
	return h
}

// sink adapts the hub to one shard's EventSink.
func (h *Hub) sink(idx int) *hubSink { return &hubSink{h: h, shard: idx} }

type hubSink struct {
	h     *Hub
	shard int
	// next, if set, receives every event after the hub: the shard
	// factory's own sink.
	next schedd.EventSink
}

func (s *hubSink) SnapshotPublished(snap *schedd.Snapshot) {
	s.h.publish(Event{
		Type: EventPlanVersion, Shard: s.shard,
		Version: snap.Version, Now: snap.Now, Degraded: snap.Degraded,
	}, true)
	if s.next != nil {
		s.next.SnapshotPublished(snap)
	}
}

func (s *hubSink) JobPlanned(st schedd.JobStatus) {
	s.h.publish(s.h.jobEvent(EventJobPlanned, s.shard, st), false)
	if s.next != nil {
		s.next.JobPlanned(st)
	}
}

func (s *hubSink) JobCompleted(st schedd.JobStatus) {
	s.h.publish(s.h.jobEvent(EventJobCompleted, s.shard, st), false)
	if s.next != nil {
		s.next.JobCompleted(st)
	}
}

func (s *hubSink) PlanImproved(pi schedd.PlanImprovement) {
	s.h.publish(Event{
		Type: EventPlanImproved, Shard: s.shard,
		Version: pi.Version, Now: pi.Now,
		Improvement: &pi,
	}, false)
	if s.next != nil {
		s.next.PlanImproved(pi)
	}
}

func (h *Hub) jobEvent(typ string, shard int, st schedd.JobStatus) Event {
	return Event{
		Type: typ, Shard: shard,
		Job: &JobEvent{
			ID:            st.ID*h.n + shard, // globalize
			State:         st.State,
			Width:         st.Width,
			PlannedStart:  st.PlannedStart,
			Start:         st.Start,
			End:           st.End,
			PlanLatencyMs: st.PlanLatencyMs,
			TraceID:       st.TraceID,
		},
	}
}

// publish delivers one event to every live subscriber. The hub-global
// ID is assigned here, under the lock, so IDs are contiguous with the
// replay ring; version events also update the per-shard state that
// primes new subscriptions, under the same lock, so no version can slip
// between a subscriber's primer and its first live event.
func (h *Hub) publish(ev Event, isVersion bool) {
	h.mu.Lock()
	h.nextID++
	ev.ID = h.nextID
	if isVersion {
		h.versions[ev.Shard] = ev.Version
		h.nows[ev.Shard] = ev.Now
		h.degraded[ev.Shard] = ev.Degraded
	}
	h.ring = append(h.ring, ev)
	if len(h.ring) > ringCap {
		h.ring = h.ring[len(h.ring)-ringCap:]
	}
	h.vEvents.With(ev.Type).Inc()
	for sub := range h.subs {
		sub.push(ev)
	}
	h.mu.Unlock()
}

// Subscribe registers a new subscriber. types filters delivery (nil =
// all). The stream opens with one plan-version primer per shard that
// has published, so a consumer knows the current state before the first
// live event; per shard, versions are then contiguous.
func (h *Hub) Subscribe(types map[string]bool) *Subscription {
	return h.SubscribeFrom(types, 0)
}

// SubscribeFrom registers a subscriber resuming after hub-global event
// afterID (a Last-Event-ID cursor). When the replay ring still covers
// everything past the cursor, those events are replayed in publication
// order before any live one, making a reconnect exactly-once; a cursor
// that has aged out of the ring falls back to the fresh-subscribe
// primers, and the consumer must treat the stream as a new baseline.
// afterID 0 is a fresh subscribe.
func (h *Hub) SubscribeFrom(types map[string]bool, afterID uint64) *Subscription {
	s := &Subscription{
		hub:   h,
		ch:    make(chan Event, h.buffer),
		types: types,
	}
	h.mu.Lock()
	// The ring covers (nextID-len(ring), nextID]; a cursor at or past its
	// floor loses nothing to replay.
	if afterID > 0 && afterID >= h.nextID-uint64(len(h.ring)) && afterID <= h.nextID {
		for _, ev := range h.ring {
			if ev.ID > afterID {
				s.push(ev)
			}
		}
		s.resumed = true
	} else {
		for i := 0; i < h.n; i++ {
			if h.versions[i] > 0 {
				// Primers are synthetic (not publications), so they carry
				// the current cursor: a client that stores their id resumes
				// from the right spot.
				s.push(Event{
					ID:   h.nextID,
					Type: EventPlanVersion, Shard: i,
					Version: h.versions[i], Now: h.nows[i], Degraded: h.degraded[i],
				})
			}
		}
	}
	// Priming alone can overflow a tiny buffer (buffer < shard count):
	// push has then already marked the subscription dead and closed its
	// channel, so registering it would leak it in h.subs forever (push
	// deletes on overflow, Close skips dead subs).
	if !s.dead {
		h.subs[s] = struct{}{}
	}
	h.cSubs.Inc()
	h.mu.Unlock()
	return s
}

// Subscribers returns the current subscriber count.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Subscription is one subscriber's event stream. Read Events until it
// closes (hub overflow disconnect) and call Close when done.
type Subscription struct {
	hub     *Hub
	ch      chan Event
	types   map[string]bool
	seq     int64
	dead    bool // guarded by hub.mu
	resumed bool // Last-Event-ID replay succeeded (no primers sent)
}

// Resumed reports whether the subscription resumed from a Last-Event-ID
// cursor (replaying missed events) rather than starting fresh.
func (s *Subscription) Resumed() bool { return s.resumed }

// Events is the subscriber's delivery channel; it closes when the hub
// disconnects the subscriber for falling too far behind.
func (s *Subscription) Events() <-chan Event { return s.ch }

// push delivers one event (hub lock held). A full buffer kills the
// subscription: the writer loops must never block on a slow reader.
func (s *Subscription) push(ev Event) {
	if s.dead || (s.types != nil && !s.types[ev.Type]) {
		return
	}
	s.seq++
	ev.Seq = s.seq
	select {
	case s.ch <- ev:
	default:
		s.dead = true
		delete(s.hub.subs, s)
		close(s.ch)
		s.hub.cOverflows.Inc()
	}
}

// Close unregisters the subscription and closes its channel.
func (s *Subscription) Close() {
	s.hub.mu.Lock()
	if !s.dead {
		s.dead = true
		delete(s.hub.subs, s)
		close(s.ch)
	}
	s.hub.mu.Unlock()
}
