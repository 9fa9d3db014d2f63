package repro

import (
	"testing"

	"repro/internal/ilpsched"
	"repro/internal/mip"
)

// TestSearchPinnedOnSampledSteps pins the serial branch and bound on the
// sampled CTC steps: a 50-node search must end with the recorded status,
// objective, node count, LP iterations and refactorizations. A solver
// change that is meant to be a pure speedup keeps every pivot, so any
// difference here means the search itself changed. When a change is
// meant to alter the search, re-record the table and say why.
func TestSearchPinnedOnSampledSteps(t *testing.T) {
	want := []struct {
		now       int64
		status    mip.Status
		objective float64
		nodes     int
		lpIters   int
		refacts   int
	}{
		{21011, mip.Feasible, 3.7641212e+07, 50, 876, 55},
		{30646, mip.Feasible, 4.0120244e+07, 50, 1338, 57},
		{31493, mip.Feasible, 4.0128564e+07, 50, 1151, 56},
		{32516, mip.Feasible, 4.0166424e+07, 50, 1475, 57},
	}
	steps := sampledCTCSteps(t)
	if len(steps) != len(want) {
		t.Fatalf("%d sampled steps, want %d", len(steps), len(want))
	}
	for k, step := range steps {
		w := want[k]
		if step.Inst.Now != w.now {
			t.Fatalf("step %d at %d, want %d: the sampling changed", k, step.Inst.Now, w.now)
		}
		m, err := ilpsched.Build(step.Inst, ctcStepScale)
		if err != nil {
			t.Fatalf("step at %d: %v", w.now, err)
		}
		sol, err := m.Solve(mip.Options{Workers: 1, MaxNodes: 50})
		if err != nil {
			t.Fatalf("step at %d: %v", w.now, err)
		}
		r := sol.MIP
		if r.Status != w.status || r.Objective != w.objective || r.Nodes != w.nodes ||
			r.LPIters != w.lpIters || r.Refactorizations != w.refacts {
			t.Errorf("step at %d: status %v, objective %v, %d nodes, %d LP iterations, %d refactorizations; want %v, %v, %d, %d, %d",
				w.now, r.Status, r.Objective, r.Nodes, r.LPIters, r.Refactorizations,
				w.status, w.objective, w.nodes, w.lpIters, w.refacts)
		}
	}
}

// TestSearchRepeatsAcrossSolves checks that a solve is a pure function of
// its model and options: a search on a freshly built step must repeat
// exactly after the pooled solver buffers served other searches in
// between — a root-only search of the same step and a full search of a
// different step. The traced ilp_steps benchmark re-solves every step
// this way and requires the same node and LP-iteration counts. Run it
// under -race as well, where the pools drop buffers at random.
func TestSearchRepeatsAcrossSolves(t *testing.T) {
	steps := sampledCTCSteps(t)
	solve := func(step *ctcStep, maxNodes int) *mip.Result {
		t.Helper()
		m, err := ilpsched.Build(step.Inst, ctcStepScale)
		if err != nil {
			t.Fatalf("step at %d: %v", step.Inst.Now, err)
		}
		sol, err := m.Solve(mip.Options{Workers: 1, MaxNodes: maxNodes})
		if err != nil {
			t.Fatalf("step at %d: %v", step.Inst.Now, err)
		}
		return sol.MIP
	}
	for k, a := range steps {
		other := steps[(k+1)%len(steps)]
		first := solve(a, 50)
		solve(a, 1)
		solve(other, 50)
		again := solve(a, 50)
		if again.Status != first.Status || again.Objective != first.Objective || again.Nodes != first.Nodes ||
			again.LPIters != first.LPIters || again.Refactorizations != first.Refactorizations {
			t.Errorf("step at %d: first solve %v, %v, %d nodes, %d LP iterations, %d refactorizations; repeat %v, %v, %d, %d, %d",
				a.Inst.Now, first.Status, first.Objective, first.Nodes, first.LPIters, first.Refactorizations,
				again.Status, again.Objective, again.Nodes, again.LPIters, again.Refactorizations)
		}
	}
}
