package repro

import (
	"math"
	"testing"

	"repro/internal/ilpsched"
	"repro/internal/mip"
)

// TestPresolveMatchesUnreducedOnSampledCTCSteps is the acceptance test
// for the presolve pass on realistic workloads: on self-tuning steps
// sampled from an E1-style CTC simulation, the presolved model must prove
// the same optimal objective as the unreduced one, while removing a
// substantial share of the x_it columns.
func TestPresolveMatchesUnreducedOnSampledCTCSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("several full MIP solves; skipped with -short")
	}
	checked := 0
	varsBefore, varsAfter := 0, 0
	entriesBefore, entriesAfter := 0, 0
	for _, step := range sampledCTCSteps(t) {
		now := step.Inst.Now
		full, err := ilpsched.Build(step.Inst, ctcStepScale)
		if err != nil {
			t.Fatalf("step at %d: %v", now, err)
		}
		fullSol, err := full.Solve(mip.Options{MaxNodes: 100000})
		if err != nil {
			t.Fatalf("step at %d: full solve: %v", now, err)
		}
		red, st, err := ilpsched.BuildPresolved(step.Inst, ctcStepScale,
			ilpsched.PresolveOptions{Seeds: step.Seeds})
		if err != nil {
			t.Fatalf("step at %d: presolve: %v", now, err)
		}
		redSol, err := red.Solve(mip.Options{MaxNodes: 100000})
		if err != nil {
			t.Fatalf("step at %d: presolved solve: %v", now, err)
		}
		if fullSol.MIP.Status != mip.Optimal || redSol.MIP.Status != mip.Optimal {
			t.Logf("step at %d: full %v, presolved %v — skipped (not both optimal)",
				now, fullSol.MIP.Status, redSol.MIP.Status)
			continue
		}
		if math.Abs(fullSol.Objective-redSol.Objective) > 1e-6 {
			t.Errorf("step at %d: full objective %g, presolved %g (stats %+v)",
				now, fullSol.Objective, redSol.Objective, st)
		}
		varsBefore += st.VarsBefore
		varsAfter += st.VarsAfter
		entriesBefore += st.EntriesBefore
		entriesAfter += st.EntriesAfter
		checked++
	}
	if checked == 0 {
		t.Fatal("no sampled step solved to optimality under both models; loosen the sampling")
	}
	if varsAfter >= varsBefore {
		t.Errorf("presolve removed nothing across %d steps: %d -> %d vars",
			checked, varsBefore, varsAfter)
	}
	t.Logf("compared %d sampled steps: %d -> %d vars (%.1f%% removed), %d -> %d matrix entries (%.1f%% removed)",
		checked, varsBefore, varsAfter,
		100*float64(varsBefore-varsAfter)/float64(varsBefore),
		entriesBefore, entriesAfter,
		100*float64(entriesBefore-entriesAfter)/float64(entriesBefore))
}
