package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestPresolveFixedColumn(t *testing.T) {
	// min x + y s.t. x + y >= 4, x fixed at 1 -> y >= 3, which the
	// singleton-row fold turns into a bound: no rows survive.
	p := NewProblem()
	x := p.AddVariable(1, 1, 1, "x")
	y := p.AddVariable(0, 10, 1, "y")
	r := p.AddConstraint(GE, 4)
	p.SetCoeff(r, x, 1)
	p.SetCoeff(r, y, 1)
	pr, st := Presolve(p)
	if st != Optimal {
		t.Fatalf("status = %v", st)
	}
	if pr.Reduced.NumVariables() != 1 || pr.Reduced.NumConstraints() != 0 {
		t.Fatalf("reduction wrong: %d cols, %d rows",
			pr.Reduced.NumVariables(), pr.Reduced.NumConstraints())
	}
	if lo, hi := pr.Reduced.Bounds(0); lo != 3 || hi != 10 {
		t.Fatalf("tightened bounds = [%v, %v], want [3, 10]", lo, hi)
	}
	if pr.Stats.SingletonRows != 1 || pr.Stats.ColsFixed != 1 || pr.Stats.RowsRemoved != 1 {
		t.Fatalf("stats = %+v", pr.Stats)
	}
	if mapped := pr.MapCols([]int{x, y}); mapped[0] != -1 || mapped[1] != 0 {
		t.Fatalf("MapCols = %v", mapped)
	}
	if v, ok := pr.FixedValue(x); !ok || v != 1 {
		t.Fatalf("FixedValue(x) = %v, %v", v, ok)
	}
	res, err := p.SolvePresolved(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Objective-4) > 1e-8 {
		t.Fatalf("postsolved: %v %g, want optimal 4", res.Status, res.Objective)
	}
	if res.X[x] != 1 || math.Abs(res.X[y]-3) > 1e-8 {
		t.Fatalf("postsolved X = %v", res.X)
	}
	checkKKT(t, p, res)
}

func TestPresolveEmptyColumn(t *testing.T) {
	p := NewProblem()
	e := p.AddVariable(0, 5, -2, "empty") // no rows: settles at hi = 5
	x := p.AddVariable(0, 3, 1, "x")
	r := p.AddConstraint(GE, 2)
	p.SetCoeff(r, x, 1)
	res, err := p.SolvePresolved(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.X[e] != 5 {
		t.Fatalf("empty column value %v, want 5", res.X[e])
	}
	if math.Abs(res.Objective-(-10+2)) > 1e-8 {
		t.Fatalf("objective %g, want -8", res.Objective)
	}
	checkKKT(t, p, res)
}

func TestPresolveDetectsUnboundedEmptyColumn(t *testing.T) {
	p := NewProblem()
	p.AddVariable(0, Inf, -1, "runaway")
	res, err := p.SolvePresolved(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
}

func TestPresolveDetectsEmptyRowInfeasible(t *testing.T) {
	// x fixed at 1, row x >= 4 becomes empty with rhs 3 > 0: infeasible.
	p := NewProblem()
	x := p.AddVariable(1, 1, 0, "x")
	r := p.AddConstraint(GE, 4)
	p.SetCoeff(r, x, 1)
	res, err := p.SolvePresolved(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
	// The consistent variant is kept feasible.
	p2 := NewProblem()
	x2 := p2.AddVariable(4, 4, 0, "x")
	r2 := p2.AddConstraint(GE, 4)
	p2.SetCoeff(r2, x2, 1)
	res2, err := p2.SolvePresolved(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != Optimal || res2.X[x2] != 4 {
		t.Fatalf("consistent fixed problem: %v %v", res2.Status, res2.X)
	}
}

func TestPresolveAllColumnsRemoved(t *testing.T) {
	p := NewProblem()
	p.AddVariable(2, 2, 3, "a")
	p.AddVariable(0, 1, 5, "b") // empty, cost > 0 -> 0
	res, err := p.SolvePresolved(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Objective-6) > 1e-12 {
		t.Fatalf("trivial problem: %v %g, want optimal 6", res.Status, res.Objective)
	}
}

// Property: SolvePresolved agrees with Solve (status, objective, KKT) on
// random feasible LPs augmented with fixed and empty columns.
func TestPresolveAgreesWithSolve(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		p := randomFeasibleLP(r)
		// Sprinkle in fixed and empty columns.
		for k := 0; k < r.Intn(3); k++ {
			v := float64(r.Intn(4))
			j := p.AddVariable(v, v, float64(r.Intn(7)-3), "fx")
			if p.NumConstraints() > 0 && r.Intn(2) == 0 {
				p.SetCoeff(r.Intn(p.NumConstraints()), j, float64(r.Intn(3)-1))
			}
		}
		for k := 0; k < r.Intn(2); k++ {
			p.AddVariable(0, float64(r.Intn(5)+1), float64(r.Intn(7)-3), "em")
		}
		a, err := p.Solve(Options{})
		if err != nil {
			return false
		}
		b, err := p.SolvePresolved(Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if a.Status != b.Status {
			t.Logf("seed %d: status %v vs %v", seed, a.Status, b.Status)
			return false
		}
		if a.Status == Optimal {
			if math.Abs(a.Objective-b.Objective) > 1e-6 {
				t.Logf("seed %d: objective %g vs %g", seed, a.Objective, b.Objective)
				return false
			}
			checkKKT(t, p, b)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
