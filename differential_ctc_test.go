package repro

import (
	"math"
	"testing"

	"repro/internal/ilpsched"
	"repro/internal/lp"
	"repro/internal/mip"
)

// TestSparseDenseBasisAgreeOnSampledCTCSteps is the end-to-end
// differential gate for the sparse LU core: on self-tuning steps sampled
// from an E1-style CTC simulation, branch and bound over the sparse-basis
// relaxations must prove the same optimal objective as over the dense
// explicit-inverse fallback. The steps are the same memoized instances
// the presolve benchmark measures. On the 6-job E5 warm-start instance
// the sparse run must also show the LU machinery at work: relaxation
// solves and Forrest–Tomlin updates, none of which the dense run makes.
func TestSparseDenseBasisAgreeOnSampledCTCSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("several full MIP solves; skipped with -short")
	}
	compared := 0
	for _, step := range sampledCTCSteps(t) {
		m, err := ilpsched.Build(step.Inst, ctcStepScale)
		if err != nil {
			t.Fatalf("step at %d: build: %v", step.Inst.Now, err)
		}
		sparseSol, err := m.Solve(mip.Options{MaxNodes: 100000})
		if err != nil {
			t.Fatalf("step at %d: sparse solve: %v", step.Inst.Now, err)
		}
		denseSol, err := m.Solve(mip.Options{MaxNodes: 100000, LP: lp.Options{DenseBasis: true}})
		if err != nil {
			t.Fatalf("step at %d: dense solve: %v", step.Inst.Now, err)
		}
		if sparseSol.MIP.Status != denseSol.MIP.Status {
			t.Fatalf("step at %d: status sparse %v, dense %v",
				step.Inst.Now, sparseSol.MIP.Status, denseSol.MIP.Status)
		}
		if sparseSol.MIP.Status != mip.Optimal {
			t.Logf("step at %d: status %v — not compared", step.Inst.Now, sparseSol.MIP.Status)
			continue
		}
		if d := math.Abs(sparseSol.Objective - denseSol.Objective); d > 1e-6*(1+math.Abs(denseSol.Objective)) {
			t.Errorf("step at %d: objective sparse %.12g, dense %.12g (|Δ| = %g)",
				step.Inst.Now, sparseSol.Objective, denseSol.Objective, d)
		}
		// The sparse runs must actually have exercised the LU machinery:
		// relaxation solves happened, so factorizations did too.
		if sparseSol.MIP.LPSolves > 0 && sparseSol.MIP.Refactorizations == 0 {
			t.Errorf("step at %d: %d LP solves with zero refactorizations — sparse telemetry broken",
				step.Inst.Now, sparseSol.MIP.LPSolves)
		}
		if denseSol.MIP.FTUpdates != 0 {
			t.Errorf("step at %d: dense run reports %d Forrest–Tomlin updates",
				step.Inst.Now, denseSol.MIP.FTUpdates)
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("no sampled CTC step solved to optimality under both bases")
	}
	t.Logf("compared %d sampled CTC steps sparse-vs-dense", compared)

	for _, dense := range []bool{false, true} {
		m, err := blowupModel(6)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := m.Solve(warmStartOptions(dense))
		if err != nil {
			t.Fatalf("E5 warm-start solve (dense=%v): %v", dense, err)
		}
		st := sol.MIP
		if dense {
			if st.FTUpdates != 0 {
				t.Errorf("E5 dense solve reports %d Forrest–Tomlin updates", st.FTUpdates)
			}
			continue
		}
		if st.LPSolves == 0 || st.FTUpdates == 0 {
			t.Errorf("E5 sparse solve: %d LP solves, %d Forrest–Tomlin updates, want both > 0",
				st.LPSolves, st.FTUpdates)
		}
		t.Logf("E5 sparse solve: %d LP solves, %d Forrest–Tomlin updates, %d refactorizations",
			st.LPSolves, st.FTUpdates, st.Refactorizations)
	}
}
