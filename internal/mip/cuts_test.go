package mip

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lp"
	"repro/internal/stats"
)

func TestSeparateCoverFindsViolation(t *testing.T) {
	// Knapsack 3x1 + 3x2 + 3x3 <= 5 with x* = (0.8, 0.8, 0): the cover
	// {1,2} (weight 6 > 5) gives x1 + x2 <= 1, violated by 1.6.
	row := knapsackRow{cols: []int{0, 1, 2}, weights: []float64{3, 3, 3}, cap: 5}
	cover, ok := separateCover(row, []float64{0.8, 0.8, 0}, 1e-4)
	if !ok {
		t.Fatal("violated cover not found")
	}
	if len(cover) != 2 {
		t.Fatalf("cover = %v, want 2 columns", cover)
	}
	seen := map[int]bool{}
	for _, c := range cover {
		seen[c] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("cover = %v, want {0, 1}", cover)
	}
}

func TestSeparateCoverNoViolation(t *testing.T) {
	row := knapsackRow{cols: []int{0, 1}, weights: []float64{3, 3}, cap: 5}
	// Integral point: no violated cover.
	if _, ok := separateCover(row, []float64{1, 0}, 1e-4); ok {
		t.Fatal("cover reported for an integral feasible point")
	}
	// No cover exists at all (weights fit together).
	light := knapsackRow{cols: []int{0, 1}, weights: []float64{2, 2}, cap: 5}
	if _, ok := separateCover(light, []float64{0.9, 0.9}, 1e-4); ok {
		t.Fatal("cover reported where none exists")
	}
}

func TestKnapsackRowsEligibility(t *testing.T) {
	p := lp.NewProblem()
	b1 := p.AddVariable(0, 1, 0, "b1")
	b2 := p.AddVariable(0, 1, 0, "b2")
	cont := p.AddVariable(0, 5, 0, "c")
	rKnap := p.AddConstraint(lp.LE, 3)
	p.SetCoeff(rKnap, b1, 2)
	p.SetCoeff(rKnap, b2, 2)
	rMixed := p.AddConstraint(lp.LE, 3) // has a continuous column: ineligible
	p.SetCoeff(rMixed, b1, 1)
	p.SetCoeff(rMixed, cont, 1)
	rGE := p.AddConstraint(lp.GE, 1) // wrong sense
	p.SetCoeff(rGE, b1, 1)
	p.SetCoeff(rGE, b2, 1)
	rNeg := p.AddConstraint(lp.LE, 3) // negative coefficient: ineligible
	p.SetCoeff(rNeg, b1, -1)
	p.SetCoeff(rNeg, b2, 1)

	rows := knapsackRows(p, map[int]bool{b1: true, b2: true})
	if len(rows) != 1 || rows[0].cap != 3 || len(rows[0].cols) != 2 {
		t.Fatalf("knapsackRows = %+v, want exactly the pure binary LE row", rows)
	}
}

func TestRootCutsImproveBoundAndPreserveOptimum(t *testing.T) {
	// A knapsack whose LP bound is fractional: cuts must not change the
	// integer optimum but should reduce the search.
	values := []float64{10, 10, 10, 10, 10, 10}
	weights := []float64{3, 3, 3, 3, 3, 3}
	pNo, intsNo := knapsack(values, weights, 8) // best: 2 items = -20
	pCut, intsCut := knapsack(values, weights, 8)
	resNo, err := Solve(pNo, intsNo, Options{IntegralObjective: true})
	if err != nil {
		t.Fatal(err)
	}
	resCut, err := Solve(pCut, intsCut, Options{IntegralObjective: true, RootCutRounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resNo.Status != Optimal || resCut.Status != Optimal {
		t.Fatalf("statuses: %v / %v", resNo.Status, resCut.Status)
	}
	if math.Abs(resNo.Objective-resCut.Objective) > 1e-6 {
		t.Fatalf("cuts changed the optimum: %g vs %g", resNo.Objective, resCut.Objective)
	}
	if resCut.Objective != -20 {
		t.Fatalf("objective = %g, want -20", resCut.Objective)
	}
	if resCut.Cuts == 0 {
		t.Fatal("no cuts were added on a fractional knapsack root")
	}
}

// Property: with and without root cuts the optimum agrees on random
// binary knapsacks (cuts are valid inequalities).
func TestCutsPreserveOptimumProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		n := r.Intn(8) + 3
		values := make([]float64, n)
		weights := make([]float64, n)
		for j := range values {
			values[j] = float64(r.Intn(20) + 1)
			weights[j] = float64(r.Intn(6) + 1)
		}
		capacity := float64(r.Intn(12) + 3)
		pA, iA := knapsack(values, weights, capacity)
		pB, iB := knapsack(values, weights, capacity)
		a, err := Solve(pA, iA, Options{IntegralObjective: true})
		if err != nil || a.Status != Optimal {
			return false
		}
		b, err := Solve(pB, iB, Options{IntegralObjective: true, RootCutRounds: 4})
		if err != nil || b.Status != Optimal {
			return false
		}
		return math.Abs(a.Objective-b.Objective) <= 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
