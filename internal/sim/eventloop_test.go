package sim

import (
	"context"
	"testing"

	"repro/internal/workload"
)

// The event loop holds only live events: the unpopped submissions, one
// completion per running job and at most one armed start, so superseded
// plans leave nothing behind. The test drives the loop event by event.
func TestEventQueueHoldsOnlyLiveEvents(t *testing.T) {
	tr, err := workload.Generate(workload.CTC(), 3000, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(tr, standard(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.ctx = context.Background()
	submits := len(tr.Jobs)
	for s.pending() > 0 {
		if depth, bound := s.pending(), submits+len(s.running)+1; depth > bound {
			t.Fatalf("t=%d: %d queued events, bound %d (%d submissions, %d running)",
				s.clock, depth, bound, submits, len(s.running))
		}
		e := s.next()
		if e.kind == evSubmit {
			submits--
		}
		if err := s.handle(e); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.result.Completed) != len(tr.Jobs) {
		t.Fatalf("completed %d of %d jobs", len(s.result.Completed), len(tr.Jobs))
	}
	if s.result.Replans == 0 {
		t.Fatal("no completion replans: the run never superseded a plan")
	}
}
