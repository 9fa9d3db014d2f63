package lp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
)

// The dual simplex kernel: the bound-flipping ratio test, the reduced
// costs it updates per pivot and the row-wise pivot row. A warm re-solve
// after a branch-and-bound bound change must reach the cold solve's
// status and objective under both basis representations.

// bothBases is the basis representations every kernel test covers.
var bothBases = []bool{false, true}

// coverRow builds minimize Σ c_j x_j over x_j ∈ [0, 1] subject to one
// covering row Σ x_j ≥ rhs, with the costs increasing in j. From rhs 0
// the optimum is all columns at zero; raising rhs turns the row into a
// dual simplex leaving row that must pass its cheapest breakpoints.
func coverRow(n int) (*Problem, int) {
	p := NewProblem()
	row := p.AddConstraint(GE, 0)
	for j := 0; j < n; j++ {
		p.AddVariable(0, 1, float64(j+1), "x")
		p.SetCoeff(row, j, 1)
	}
	return p, row
}

// solveWarmAfter solves p cold, applies edit and re-solves it warm from
// the first optimal basis and cold, checking that they agree.
func solveWarmAfter(t *testing.T, p *Problem, opt Options, edit func()) (warm, cold *Result) {
	t.Helper()
	base, err := p.Solve(opt)
	if err != nil || base.Status != Optimal {
		t.Fatalf("base solve: %v %v", base.Status, err)
	}
	edit()
	if warm, err = p.SolveFrom(base.Basis, opt); err != nil {
		t.Fatal(err)
	}
	if cold, err = p.Solve(opt); err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Fatal("the re-solve did not stay on the warm path")
	}
	if warm.Status != cold.Status {
		t.Fatalf("warm status %v, cold %v", warm.Status, cold.Status)
	}
	if warm.Status == Optimal {
		if d := math.Abs(warm.Objective - cold.Objective); d > 1e-7*math.Max(1, math.Abs(cold.Objective)) {
			t.Fatalf("warm objective %.12g, cold %.12g", warm.Objective, cold.Objective)
		}
		checkKKT(t, p, warm)
	}
	return warm, cold
}

// One leaving row whose repair needs seven and a half unit columns: the
// ratio test passes the seven cheapest breakpoints, flipping them to
// their upper bounds with one FTRAN, and the eighth enters. The whole
// repair is a single pivot plus the closing optimality checks of the
// dual and the primal polish.
func TestDualPassesManyBreakpoints(t *testing.T) {
	for _, dense := range bothBases {
		p, row := coverRow(10)
		warm, _ := solveWarmAfter(t, p, Options{DenseBasis: dense}, func() { p.rhs[row] = 7.5 })
		if warm.Status != Optimal || warm.Objective != 1+2+3+4+5+6+7+0.5*8 {
			t.Fatalf("dense=%v: %v objective %g, want optimal 32", dense, warm.Status, warm.Objective)
		}
		if warm.BoundFlips != 7 || warm.Iterations != 3 {
			t.Fatalf("dense=%v: %d flips in %d iterations, want 7 in 3", dense, warm.BoundFlips, warm.Iterations)
		}
	}
}

// A leaving row that stays infeasible after every eligible column has
// flipped proves the LP infeasible in one iteration.
func TestDualInfeasibleAfterEveryFlip(t *testing.T) {
	for _, dense := range bothBases {
		p, row := coverRow(10)
		warm, _ := solveWarmAfter(t, p, Options{DenseBasis: dense}, func() { p.rhs[row] = 10.5 })
		if warm.Status != Infeasible || warm.Iterations != 1 {
			t.Fatalf("dense=%v: %v after %d iterations, want infeasible after 1", dense, warm.Status, warm.Iterations)
		}
	}
}

// randomBoxedLP is a feasible LP with mixed LE/GE/EQ rows over boxed
// columns plus, with some probability, zero-cost free columns. The
// objective depends on the boxed columns only, so it is bounded.
func randomBoxedLP(r *stats.Rand) (*Problem, []bool) {
	p := NewProblem()
	nBox := r.Intn(10) + 3
	nFree := r.Intn(3)
	m := r.Intn(7) + 2
	n := nBox + nFree
	free := make([]bool, n)
	x0 := make([]float64, n)
	for j := 0; j < nBox; j++ {
		hi := float64(r.Intn(5) + 1)
		p.AddVariable(0, hi, float64(r.Intn(21)-10), "b")
		x0[j] = hi * r.Float64()
	}
	for j := nBox; j < n; j++ {
		p.AddVariable(-Inf, Inf, 0, "f")
		free[j] = true
		x0[j] = 4*r.Float64() - 2
	}
	for i := 0; i < m; i++ {
		// Half the rows have positive coefficients only: they cover or
		// pack many boxed columns, the rows whose repair passes several
		// breakpoints.
		sameSign := r.Intn(2) == 0
		coeffs := make([]float64, n)
		var act float64
		for j := range coeffs {
			if r.Intn(3) == 0 {
				continue // about a third of the entries are zero
			}
			if sameSign {
				coeffs[j] = float64(r.Intn(3) + 1)
			} else {
				coeffs[j] = float64(r.Intn(9) - 4)
			}
			act += coeffs[j] * x0[j]
		}
		var row int
		switch r.Intn(3) {
		case 0:
			row = p.AddConstraint(LE, act+float64(r.Intn(4)))
		case 1:
			row = p.AddConstraint(GE, act-float64(r.Intn(4)))
		default:
			row = p.AddConstraint(EQ, act)
		}
		for j, c := range coeffs {
			p.SetCoeff(row, j, c)
		}
	}
	return p, free
}

// Random boxed LPs re-solved warm down a chain of branch-and-bound bound
// tightenings, each from the previous optimal basis, must agree with a
// cold solve of the same bounds under both bases. The suite must keep
// exercising the ratio test's three hard cases: a leaving row that
// passes several breakpoints in one iteration, a row that stays
// infeasible after every flip, and free nonbasic columns.
//
// At every dual iteration the reduced costs the dual keeps must also
// match a fresh pricing of the current basis. A wrong update still ends
// at the optimum, repaired by the primal polish, so the objectives alone
// would not show it.
func TestDualKernelAgreesWithColdSolve(t *testing.T) {
	var y []float64
	var priced int
	var stale string
	dualBreakdownHook = func(s *simplex, _ []float64, _ int) {
		y = growF(y, s.m)
		s.duals(y)
		for j := 0; j < s.ncols(); j++ {
			if s.stat[j] == isBasic || !s.movable(j) {
				continue
			}
			if want := s.reduced(j, y); math.Abs(s.d[j]-want) > 1e-7*math.Max(1, math.Abs(want)) && stale == "" {
				stale = fmt.Sprintf("column %d kept reduced cost %.12g, fresh pricing %.12g", j, s.d[j], want)
			}
		}
		priced++
	}
	defer func() { dualBreakdownHook = nil }()
	for _, dense := range bothBases {
		opt := Options{DenseBasis: dense}
		var solves, multiPass, infeasible, freeNonbasic int
		priced = 0
		for seed := uint64(0); seed < 1000; seed++ {
			r := stats.NewRand(seed)
			p, free := randomBoxedLP(r)
			res, err := p.Solve(opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != Optimal {
				t.Fatalf("dense=%v seed %d: %v on a feasible bounded LP", dense, seed, res.Status)
			}
			basis, x := res.Basis, res.X
			for depth := 0; depth < 6; depth++ {
				// Branch on a boxed column: down to floor(x) or up to
				// ceil(x), or fix it at the bound farther from x, which
				// moves the rows it meets the most.
				j := r.Intn(len(free))
				for free[j] {
					j = r.Intn(len(free))
				}
				lo, hi := p.Bounds(j)
				fl := math.Floor(x[j] + 1e-9)
				switch k := r.Intn(3); {
				case k == 2 && x[j]-lo < hi-x[j]:
					p.SetBounds(j, hi, hi)
				case k == 2:
					p.SetBounds(j, lo, lo)
				case k == 0 && fl > lo:
					p.SetBounds(j, lo, math.Min(hi, fl-1+float64(r.Intn(2))))
				case fl < hi:
					p.SetBounds(j, math.Max(lo, fl+1-float64(r.Intn(2))), hi)
				default:
					p.SetBounds(j, lo, lo)
				}
				for _, st := range basis.stat {
					if st == freeNB {
						freeNonbasic++
						break
					}
				}
				tag := fmt.Sprintf("dense=%v seed %d depth %d", dense, seed, depth)
				warm, err := p.SolveFrom(basis, opt)
				if err != nil {
					t.Fatalf("%s: warm: %v", tag, err)
				}
				if stale != "" {
					t.Fatalf("%s: %s", tag, stale)
				}
				cold, err := p.Solve(opt)
				if err != nil {
					t.Fatalf("%s: cold: %v", tag, err)
				}
				solves++
				if warm.Status != cold.Status {
					t.Fatalf("%s: warm %v, cold %v", tag, warm.Status, cold.Status)
				}
				if warm.Status != Optimal {
					infeasible++
					break
				}
				if d := math.Abs(warm.Objective - cold.Objective); d > 1e-7*math.Max(1, math.Abs(cold.Objective)) {
					t.Fatalf("%s: warm objective %.12g, cold %.12g", tag, warm.Objective, cold.Objective)
				}
				checkKKT(t, p, warm)
				// An optimal warm solve spends two iterations on the
				// closing checks of the dual and the primal polish; more
				// flips than the other iterations means one of them
				// passed several breakpoints.
				if warm.BoundFlips > warm.Iterations-2 {
					multiPass++
				}
				basis, x = warm.Basis, warm.X
			}
		}
		t.Logf("dense=%v: %d warm re-solves, %d passed several breakpoints in an iteration, %d infeasible, %d from a free nonbasic column, %d dual iterations priced afresh",
			dense, solves, multiPass, infeasible, freeNonbasic, priced)
		if multiPass == 0 || infeasible == 0 || freeNonbasic == 0 || priced == 0 {
			t.Fatalf("dense=%v: the suite no longer covers every ratio-test case", dense)
		}
	}
}

// A leaving row left infeasible by less than the tolerance after every
// flip is feasible: the last breakpoint enters instead of the solve
// reporting infeasibility.
func TestDualFeasibleWithinToleranceAfterEveryFlip(t *testing.T) {
	for _, dense := range bothBases {
		p, row := coverRow(10)
		opt := Options{DenseBasis: dense}
		warm, _ := solveWarmAfter(t, p, opt, func() { p.rhs[row] = 10 + 0.5*opt.withDefaults().Tol })
		if warm.Status != Optimal || warm.BoundFlips != 9 || warm.Iterations != 3 {
			t.Fatalf("dense=%v: %v with %d flips in %d iterations, want optimal with 9 in 3",
				dense, warm.Status, warm.BoundFlips, warm.Iterations)
		}
	}
}
