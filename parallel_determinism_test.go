package repro

import (
	"math"
	"testing"

	"repro/internal/ilpsched"
	"repro/internal/mip"
)

// TestParallelSolveMatchesSerialOnSampledSteps is the determinism
// acceptance test for the parallel branch and bound: on self-tuning steps
// sampled from an E1-style CTC simulation, the ILP solved with Workers=1
// and Workers=4 must prove the same optimal objective. The parallel pool
// explores the tree in a nondeterministic order, but the optimum it
// certifies may not depend on that order.
func TestParallelSolveMatchesSerialOnSampledSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("several full MIP solves; skipped with -short")
	}
	checked := 0
	for _, step := range sampledCTCSteps(t) {
		now := step.Inst.Now
		solve := func(workers int) *mip.Result {
			// Build per solve: identical deterministic models, no shared
			// mutable state between the two runs.
			m, err := ilpsched.Build(step.Inst, ctcStepScale)
			if err != nil {
				t.Fatalf("step at %d: %v", now, err)
			}
			sol, err := m.Solve(mip.Options{MaxNodes: 100000, Workers: workers})
			if err != nil {
				t.Fatalf("step at %d (workers=%d): %v", now, workers, err)
			}
			return sol.MIP
		}
		serial, parallel := solve(1), solve(4)
		if serial.Status != mip.Optimal || parallel.Status != mip.Optimal {
			// A node-limited step proves nothing about determinism — don't
			// compare incumbents of two different truncated searches.
			t.Logf("step at %d: serial %v, parallel %v — skipped (not both optimal)",
				now, serial.Status, parallel.Status)
			continue
		}
		if math.Abs(serial.Objective-parallel.Objective) > 1e-6 {
			t.Errorf("step at %d: serial objective %g, parallel %g",
				now, serial.Objective, parallel.Objective)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no sampled step solved to optimality under both worker counts; loosen the sampling")
	}
	t.Logf("compared %d sampled steps", checked)
}
