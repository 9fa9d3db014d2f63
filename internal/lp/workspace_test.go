package lp

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/stats"
)

// One Workspace reused across problems of different shapes, cold and
// warm, must reproduce the one-shot solves exactly, and the one-shot
// Results must own their vectors: a later solve may not change them.
func TestWorkspaceMatchesOneShotSolves(t *testing.T) {
	r := stats.NewRand(4242)
	ctx := context.Background()
	var ws Workspace
	for trial := 0; trial < 80; trial++ {
		p := randomFeasibleLP(r)
		want, err := p.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantX := append([]float64(nil), want.X...)
		got, err := ws.SolveFrom(ctx, p, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status || got.Objective != want.Objective ||
			got.Iterations != want.Iterations || !reflect.DeepEqual(got.X, want.X) ||
			!reflect.DeepEqual(got.Duals, want.Duals) {
			t.Fatalf("trial %d: workspace solve %+v, one-shot %+v", trial, got, want)
		}
		if got.Basis != nil {
			t.Fatalf("trial %d: workspace Result carries a Basis", trial)
		}
		if want.Status != Optimal {
			continue
		}
		if b := ws.Basis(); !reflect.DeepEqual(b, want.Basis) {
			t.Fatalf("trial %d: exported basis %+v, one-shot %+v", trial, b, want.Basis)
		}
		// Tighten one bound and warm-start both ways from the same basis.
		lo, hi := p.Bounds(0)
		p.SetBounds(0, lo, (lo+hi)/2)
		warm, err := p.SolveFrom(want.Basis, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err = ws.SolveFrom(ctx, p, want.Basis, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != warm.Status || got.Objective != warm.Objective ||
			got.Iterations != warm.Iterations || got.WarmStarted != warm.WarmStarted ||
			!reflect.DeepEqual(got.X, warm.X) {
			t.Fatalf("trial %d: warm workspace solve %+v, one-shot %+v", trial, got, warm)
		}
		if !reflect.DeepEqual(want.X, wantX) {
			t.Fatalf("trial %d: a later solve changed a one-shot Result's X", trial)
		}
	}
}
