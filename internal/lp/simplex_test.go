package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// newSimplex returns a simplex for p on a fresh Workspace, for tests that
// drive the simplex internals directly.
func newSimplex(p *Problem, opt Options) *simplex { return new(Workspace).start(p, opt) }

// solveOrDie solves and requires Optimal.
func solveOrDie(t *testing.T, p *Problem) *Result {
	t.Helper()
	res, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	return res
}

// checkKKT verifies that res is a true optimum of p: primal feasibility
// plus the complementary-slackness/dual-feasibility conditions over every
// structural and slack column. This is a full optimality certificate for
// linear programs.
func checkKKT(t *testing.T, p *Problem, res *Result) {
	t.Helper()
	const eps = 1e-5
	n, m := p.NumVariables(), p.NumConstraints()
	if len(res.X) != n || len(res.Duals) != m {
		t.Fatalf("result dimensions wrong: %d/%d", len(res.X), len(res.Duals))
	}
	// Row activities and primal feasibility.
	act := make([]float64, m)
	for j := 0; j < n; j++ {
		x := res.X[j]
		if x < p.lo[j]-eps || x > p.hi[j]+eps {
			t.Fatalf("x[%d] = %g outside [%g, %g]", j, x, p.lo[j], p.hi[j])
		}
		for _, e := range p.cols[j] {
			act[e.row] += e.val * x
		}
	}
	for i := 0; i < m; i++ {
		switch p.sense[i] {
		case LE:
			if act[i] > p.rhs[i]+eps {
				t.Fatalf("row %d: %g > %g", i, act[i], p.rhs[i])
			}
		case GE:
			if act[i] < p.rhs[i]-eps {
				t.Fatalf("row %d: %g < %g", i, act[i], p.rhs[i])
			}
		case EQ:
			if math.Abs(act[i]-p.rhs[i]) > eps {
				t.Fatalf("row %d: %g != %g", i, act[i], p.rhs[i])
			}
		}
	}
	// Dual feasibility / complementary slackness for structural columns.
	for j := 0; j < n; j++ {
		d := p.cost[j]
		for _, e := range p.cols[j] {
			d -= res.Duals[e.row] * e.val
		}
		x := res.X[j]
		atLo := x <= p.lo[j]+eps
		atHi := x >= p.hi[j]-eps
		switch {
		case atLo && atHi: // fixed: any d
		case atLo:
			if d < -eps {
				t.Fatalf("col %d at lower with reduced cost %g < 0", j, d)
			}
		case atHi:
			if d > eps {
				t.Fatalf("col %d at upper with reduced cost %g > 0", j, d)
			}
		default:
			if math.Abs(d) > eps {
				t.Fatalf("interior col %d with reduced cost %g != 0", j, d)
			}
		}
	}
	// Slack columns: reduced cost is -y_i; slack value b_i - act_i.
	for i := 0; i < m; i++ {
		s := p.rhs[i] - act[i]
		y := res.Duals[i]
		var slo, shi float64
		switch p.sense[i] {
		case LE:
			slo, shi = 0, math.Inf(1)
		case GE:
			slo, shi = math.Inf(-1), 0
		case EQ:
			continue // slack fixed at 0, y free
		}
		atLo := s <= slo+eps
		atHi := s >= shi-eps
		switch {
		case atLo:
			if -y < -eps {
				t.Fatalf("tight row %d (%v) with dual %g of wrong sign", i, p.sense[i], y)
			}
		case atHi:
			if -y > eps {
				t.Fatalf("tight row %d (%v) with dual %g of wrong sign", i, p.sense[i], y)
			}
		default:
			if math.Abs(y) > eps {
				t.Fatalf("slack row %d with nonzero dual %g", i, y)
			}
		}
	}
	// Objective consistency.
	var obj float64
	for j := 0; j < n; j++ {
		obj += p.cost[j] * res.X[j]
	}
	if math.Abs(obj-res.Objective) > 1e-6*(1+math.Abs(obj)) {
		t.Fatalf("objective %g does not match solution value %g", res.Objective, obj)
	}
}

func TestSimpleLE(t *testing.T) {
	// min -x - y  s.t. x + y <= 10, x <= 6, y <= 7, x,y >= 0 -> -10.
	p := NewProblem()
	x := p.AddVariable(0, 6, -1, "x")
	y := p.AddVariable(0, 7, -1, "y")
	r := p.AddConstraint(LE, 10)
	p.SetCoeff(r, x, 1)
	p.SetCoeff(r, y, 1)
	res := solveOrDie(t, p)
	if math.Abs(res.Objective-(-10)) > 1e-8 {
		t.Fatalf("objective = %g, want -10", res.Objective)
	}
	checkKKT(t, p, res)
}

func TestEquality(t *testing.T) {
	// min x + 2y  s.t. x + y = 5, x,y in [0, 3] -> x=3, y=2, obj 7.
	p := NewProblem()
	x := p.AddVariable(0, 3, 1, "x")
	y := p.AddVariable(0, 3, 2, "y")
	r := p.AddConstraint(EQ, 5)
	p.SetCoeff(r, x, 1)
	p.SetCoeff(r, y, 1)
	res := solveOrDie(t, p)
	if math.Abs(res.Objective-7) > 1e-8 {
		t.Fatalf("objective = %g, want 7", res.Objective)
	}
	if math.Abs(res.X[x]-3) > 1e-8 || math.Abs(res.X[y]-2) > 1e-8 {
		t.Fatalf("solution (%g, %g), want (3, 2)", res.X[x], res.X[y])
	}
	checkKKT(t, p, res)
}

func TestGE(t *testing.T) {
	// min 2x + 3y  s.t. x + y >= 4, x,y in [0, 10] -> x=4, obj 8.
	p := NewProblem()
	x := p.AddVariable(0, 10, 2, "x")
	y := p.AddVariable(0, 10, 3, "y")
	r := p.AddConstraint(GE, 4)
	p.SetCoeff(r, x, 1)
	p.SetCoeff(r, y, 1)
	res := solveOrDie(t, p)
	if math.Abs(res.Objective-8) > 1e-8 {
		t.Fatalf("objective = %g, want 8", res.Objective)
	}
	checkKKT(t, p, res)
}

func TestPureBoundProblem(t *testing.T) {
	// No rows at all: min -x on [0, 5] -> -5.
	p := NewProblem()
	p.AddVariable(0, 5, -1, "x")
	res := solveOrDie(t, p)
	if math.Abs(res.Objective-(-5)) > 1e-12 {
		t.Fatalf("objective = %g, want -5", res.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	// x <= 2 (bound) but row demands x >= 5.
	p := NewProblem()
	x := p.AddVariable(0, 2, 0, "x")
	r := p.AddConstraint(GE, 5)
	p.SetCoeff(r, x, 1)
	res, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestInfeasibleEquality(t *testing.T) {
	// x + y = 10 with x,y in [0,3].
	p := NewProblem()
	x := p.AddVariable(0, 3, 1, "x")
	y := p.AddVariable(0, 3, 1, "y")
	r := p.AddConstraint(EQ, 10)
	p.SetCoeff(r, x, 1)
	p.SetCoeff(r, y, 1)
	res, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x with x >= 0 unbounded above, one slack row to keep m > 0.
	p := NewProblem()
	x := p.AddVariable(0, Inf, -1, "x")
	y := p.AddVariable(0, 1, 0, "y")
	r := p.AddConstraint(LE, 100)
	p.SetCoeff(r, y, 1)
	_ = x
	res, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
}

func TestUnboundedNoRows(t *testing.T) {
	p := NewProblem()
	p.AddVariable(math.Inf(-1), Inf, 1, "free") // min x, x free
	res, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
}

func TestFreeVariable(t *testing.T) {
	// min x  s.t. x >= -7 via row (x free): optimum -7.
	p := NewProblem()
	x := p.AddVariable(math.Inf(-1), Inf, 1, "x")
	r := p.AddConstraint(GE, -7)
	p.SetCoeff(r, x, 1)
	res := solveOrDie(t, p)
	if math.Abs(res.Objective-(-7)) > 1e-8 {
		t.Fatalf("objective = %g, want -7", res.Objective)
	}
	checkKKT(t, p, res)
}

func TestNegativeRHS(t *testing.T) {
	// min x + y s.t. -x - y <= -4 (i.e. x + y >= 4), x,y in [0,10].
	p := NewProblem()
	x := p.AddVariable(0, 10, 1, "x")
	y := p.AddVariable(0, 10, 1, "y")
	r := p.AddConstraint(LE, -4)
	p.SetCoeff(r, x, -1)
	p.SetCoeff(r, y, -1)
	res := solveOrDie(t, p)
	if math.Abs(res.Objective-4) > 1e-8 {
		t.Fatalf("objective = %g, want 4", res.Objective)
	}
	checkKKT(t, p, res)
}

func TestDuplicateCoefficientsAccumulate(t *testing.T) {
	// SetCoeff twice: row becomes 2x <= 10 -> min -x gives x=5.
	p := NewProblem()
	x := p.AddVariable(0, Inf, -1, "x")
	r := p.AddConstraint(LE, 10)
	p.SetCoeff(r, x, 1)
	p.SetCoeff(r, x, 1)
	res := solveOrDie(t, p)
	if math.Abs(res.X[x]-5) > 1e-8 {
		t.Fatalf("x = %g, want 5", res.X[x])
	}
}

func TestDegenerateBeale(t *testing.T) {
	// Beale's cycling example (classic). Optimum is -0.05.
	p := NewProblem()
	x1 := p.AddVariable(0, Inf, -0.75, "x1")
	x2 := p.AddVariable(0, Inf, 150, "x2")
	x3 := p.AddVariable(0, Inf, -0.02, "x3")
	x4 := p.AddVariable(0, Inf, 6, "x4")
	r1 := p.AddConstraint(LE, 0)
	p.SetCoeff(r1, x1, 0.25)
	p.SetCoeff(r1, x2, -60)
	p.SetCoeff(r1, x3, -1.0/25.0)
	p.SetCoeff(r1, x4, 9)
	r2 := p.AddConstraint(LE, 0)
	p.SetCoeff(r2, x1, 0.5)
	p.SetCoeff(r2, x2, -90)
	p.SetCoeff(r2, x3, -1.0/50.0)
	p.SetCoeff(r2, x4, 3)
	r3 := p.AddConstraint(LE, 1)
	p.SetCoeff(r3, x3, 1)
	res := solveOrDie(t, p)
	if math.Abs(res.Objective-(-0.05)) > 1e-8 {
		t.Fatalf("objective = %g, want -0.05", res.Objective)
	}
	checkKKT(t, p, res)
}

func TestIterationLimit(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(0, 10, -1, "x")
	r := p.AddConstraint(LE, 5)
	p.SetCoeff(r, x, 1)
	res, err := p.Solve(Options{MaxIters: 1, Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	// One iteration may or may not reach optimality; the point is that
	// the solver terminates and reports a defined status.
	if res.Status != Optimal && res.Status != IterationLimit {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestValidateErrors(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(5, 2, 0, "x") // lo > hi
	if _, err := p.Solve(Options{}); err == nil {
		t.Fatal("lo > hi accepted")
	}
	p.SetBounds(x, 0, 2)
	p.SetCost(x, math.NaN())
	if _, err := p.Solve(Options{}); err == nil {
		t.Fatal("NaN cost accepted")
	}
}

func TestSetCoeffPanics(t *testing.T) {
	p := NewProblem()
	p.AddVariable(0, 1, 0, "x")
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range SetCoeff did not panic")
		}
	}()
	p.SetCoeff(3, 0, 1)
}

func TestWarmStartAfterBoundChange(t *testing.T) {
	// Solve, then tighten a bound (as branch and bound does) and warm
	// start: the result must match a cold solve.
	p := NewProblem()
	x := p.AddVariable(0, 1, -3, "x")
	y := p.AddVariable(0, 1, -2, "y")
	z := p.AddVariable(0, 1, -1, "z")
	r := p.AddConstraint(LE, 1.5)
	p.SetCoeff(r, x, 1)
	p.SetCoeff(r, y, 1)
	p.SetCoeff(r, z, 1)
	res := solveOrDie(t, p)

	p.SetBounds(x, 0, 0) // branch x = 0
	warm, err := p.SolveFrom(res.Basis, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal || cold.Status != Optimal {
		t.Fatalf("statuses: warm %v cold %v", warm.Status, cold.Status)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-7 {
		t.Fatalf("warm %g != cold %g", warm.Objective, cold.Objective)
	}
	checkKKT(t, p, warm)
}

func TestWarmStartDetectsInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(0, 1, -1, "x")
	y := p.AddVariable(0, 1, -1, "y")
	r := p.AddConstraint(GE, 1.5)
	p.SetCoeff(r, x, 1)
	p.SetCoeff(r, y, 1)
	res := solveOrDie(t, p)
	p.SetBounds(x, 0, 0)
	p.SetBounds(y, 0, 0) // now x+y >= 1.5 impossible
	warm, err := p.SolveFrom(res.Basis, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", warm.Status)
	}
}

func TestWarmStartNilBasis(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(0, 4, -1, "x")
	r := p.AddConstraint(LE, 3)
	p.SetCoeff(r, x, 1)
	res, err := p.SolveFrom(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Objective-(-3)) > 1e-8 {
		t.Fatalf("nil-basis warm start wrong: %v %g", res.Status, res.Objective)
	}
}

func TestClone(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(0, 4, -1, "x")
	r := p.AddConstraint(LE, 3)
	p.SetCoeff(r, x, 1)
	c := p.Clone()
	c.SetBounds(x, 0, 1)
	res := solveOrDie(t, p)
	if math.Abs(res.Objective-(-3)) > 1e-8 {
		t.Fatal("clone mutation leaked into original")
	}
}

// randomFeasibleLP builds a random LP guaranteed feasible (a known point
// x0 in the box satisfies every row) and bounded (all boxes finite).
func randomFeasibleLP(r *stats.Rand) *Problem {
	p := NewProblem()
	n := r.Intn(6) + 1
	m := r.Intn(5) + 1
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		p.AddVariable(0, float64(r.Intn(8)+2), float64(r.Intn(11)-5), "v")
		_, hi := p.Bounds(j)
		x0[j] = hi * r.Float64()
	}
	for i := 0; i < m; i++ {
		var act float64
		coeffs := make([]float64, n)
		for j := 0; j < n; j++ {
			c := float64(r.Intn(7) - 3)
			coeffs[j] = c
			act += c * x0[j]
		}
		var row int
		switch r.Intn(3) {
		case 0:
			row = p.AddConstraint(LE, act+float64(r.Intn(5)))
		case 1:
			row = p.AddConstraint(GE, act-float64(r.Intn(5)))
		default:
			row = p.AddConstraint(EQ, act)
		}
		for j := 0; j < n; j++ {
			p.SetCoeff(row, j, coeffs[j])
		}
	}
	return p
}

// Property: every random feasible bounded LP solves to Optimal and passes
// the full KKT certificate.
func TestRandomLPsAreKKTOptimal(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		p := randomFeasibleLP(r)
		res, err := p.Solve(Options{})
		if err != nil || res.Status != Optimal {
			t.Logf("seed %d: status %v err %v", seed, res.Status, err)
			return false
		}
		checkKKT(t, p, res)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: warm starting from the optimal basis after a random bound
// tightening agrees with a cold solve (status and objective).
func TestWarmColdAgreementProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		p := randomFeasibleLP(r)
		res, err := p.Solve(Options{})
		if err != nil || res.Status != Optimal {
			return false
		}
		j := r.Intn(p.NumVariables())
		lo, hi := p.Bounds(j)
		switch r.Intn(2) {
		case 0:
			p.SetBounds(j, lo, lo) // fix down
		default:
			p.SetBounds(j, hi, hi) // fix up
		}
		warm, err := p.SolveFrom(res.Basis, Options{})
		if err != nil {
			return false
		}
		cold, err := p.Solve(Options{})
		if err != nil {
			return false
		}
		if warm.Status != cold.Status {
			t.Logf("seed %d: warm %v cold %v", seed, warm.Status, cold.Status)
			return false
		}
		if warm.Status == Optimal && math.Abs(warm.Objective-cold.Objective) > 1e-6 {
			t.Logf("seed %d: warm obj %g cold obj %g", seed, warm.Objective, cold.Objective)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// Grid cross-check: no feasible grid point may beat the simplex optimum.
func TestGridCrossCheck(t *testing.T) {
	r := stats.NewRand(12345)
	for trial := 0; trial < 30; trial++ {
		p := NewProblem()
		n := 3
		for j := 0; j < n; j++ {
			p.AddVariable(0, 4, float64(r.Intn(9)-4), "v")
		}
		m := r.Intn(3) + 1
		coeffs := make([][]float64, m)
		for i := 0; i < m; i++ {
			row := p.AddConstraint(LE, float64(r.Intn(10)+2))
			coeffs[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				c := float64(r.Intn(4))
				coeffs[i][j] = c
				p.SetCoeff(row, j, c)
			}
		}
		res := solveOrDie(t, p) // x=0 always feasible here
		const step = 0.5
		for a := 0.0; a <= 4; a += step {
			for b := 0.0; b <= 4; b += step {
				for c := 0.0; c <= 4; c += step {
					pt := []float64{a, b, c}
					ok := true
					for i := 0; i < m; i++ {
						var act float64
						for j := 0; j < n; j++ {
							act += coeffs[i][j] * pt[j]
						}
						if act > p.rhs[i]+1e-9 {
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
					var obj float64
					for j := 0; j < n; j++ {
						obj += p.cost[j] * pt[j]
					}
					if obj < res.Objective-1e-6 {
						t.Fatalf("trial %d: grid point %v beats simplex (%g < %g)",
							trial, pt, obj, res.Objective)
					}
				}
			}
		}
	}
}

func BenchmarkSolveMedium(b *testing.B) {
	// A 60-row, 120-column random LP.
	r := stats.NewRand(5)
	build := func() *Problem {
		p := NewProblem()
		for j := 0; j < 120; j++ {
			p.AddVariable(0, 10, float64(r.Intn(21)-10), "v")
		}
		for i := 0; i < 60; i++ {
			row := p.AddConstraint(LE, float64(r.Intn(50)+10))
			for k := 0; k < 8; k++ {
				p.SetCoeff(row, r.Intn(120), float64(r.Intn(5)+1))
			}
		}
		return p
	}
	p := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Clone().Solve(Options{})
		if err != nil || res.Status != Optimal {
			b.Fatalf("%v %v", res.Status, err)
		}
	}
}

// Factorize correctness (dense path): after solving, binv must satisfy
// binv * B = I exactly (within tolerance) for random problems with
// interesting bases.
func TestFactorizeInverseIdentity(t *testing.T) {
	r := stats.NewRand(654)
	opt := Options{DenseBasis: true}.withDefaults()
	for trial := 0; trial < 60; trial++ {
		p := randomFeasibleLP(r)
		s := newSimplex(p, opt)
		s.coldBasis()
		res, err := p.Solve(opt)
		if err != nil || res.Status != Optimal {
			continue
		}
		// Install the optimal basis and factorize through the block path.
		s2 := newSimplex(p, opt)
		copy(s2.stat, res.Basis.stat)
		copy(s2.basis, res.Basis.rows)
		if !s2.factorize() {
			t.Fatalf("trial %d: optimal basis declared singular", trial)
		}
		m := s2.m
		// Verify binv * B = I.
		for i := 0; i < m; i++ {
			for ii := 0; ii < m; ii++ {
				var sum float64
				for _, e := range s2.acols[s2.basis[ii]] {
					sum += s2.binv[i*m+e.row] * e.val
				}
				want := 0.0
				if i == ii {
					want = 1
				}
				if math.Abs(sum-want) > 1e-7 {
					t.Fatalf("trial %d: (binv*B)[%d][%d] = %g, want %g", trial, i, ii, sum, want)
				}
			}
		}
	}
}

// Sparse analog of TestFactorizeInverseIdentity: FTRAN of each basis
// column through the LU factors must return the corresponding unit
// vector, and BTRAN must invert B^T the same way.
func TestSparseLUFactorizeIdentity(t *testing.T) {
	r := stats.NewRand(654)
	opt := Options{}.withDefaults()
	for trial := 0; trial < 60; trial++ {
		p := randomFeasibleLP(r)
		res, err := p.Solve(opt)
		if err != nil || res.Status != Optimal {
			continue
		}
		s := newSimplex(p, opt)
		copy(s.stat, res.Basis.stat)
		copy(s.basis, res.Basis.rows)
		if !s.factorize() {
			t.Fatalf("trial %d: optimal basis declared singular", trial)
		}
		m := s.m
		w := make([]float64, m)
		for pos := 0; pos < m; pos++ {
			s.ftran(s.basis[pos], w)
			for i := 0; i < m; i++ {
				want := 0.0
				if i == pos {
					want = 1
				}
				if math.Abs(w[i]-want) > 1e-7 {
					t.Fatalf("trial %d: ftran(B[%d])[%d] = %g, want %g", trial, pos, i, w[i], want)
				}
			}
		}
		// BTRAN check: rho_r = e_r^T B^{-1} must satisfy rho_r · B[:,pos] = [r==pos].
		rho := make([]float64, m)
		for row := 0; row < m; row++ {
			s.basisRow(row, rho)
			for pos := 0; pos < m; pos++ {
				var sum float64
				for _, e := range s.acols[s.basis[pos]] {
					sum += rho[e.row] * e.val
				}
				want := 0.0
				if row == pos {
					want = 1
				}
				if math.Abs(sum-want) > 1e-7 {
					t.Fatalf("trial %d: (B^-1 B)[%d][%d] = %g, want %g", trial, row, pos, sum, want)
				}
			}
		}
		s.release()
	}
}

func TestFactorizeSingularBasis(t *testing.T) {
	for _, dense := range []bool{false, true} {
		// Two identical structural columns cannot both be basic.
		p := NewProblem()
		x := p.AddVariable(0, 10, -1, "x")
		y := p.AddVariable(0, 10, -1, "y")
		r0 := p.AddConstraint(LE, 5)
		r1 := p.AddConstraint(LE, 7)
		p.SetCoeff(r0, x, 1)
		p.SetCoeff(r0, y, 1)
		p.SetCoeff(r1, x, 1)
		p.SetCoeff(r1, y, 1)
		s := newSimplex(p, Options{DenseBasis: dense}.withDefaults())
		s.coldBasis()
		s.basis[0], s.basis[1] = x, y // both structural, linearly dependent
		s.stat[x], s.stat[y] = isBasic, isBasic
		s.stat[s.n], s.stat[s.n+1] = atLower, atLower
		if s.factorize() {
			t.Fatalf("dense=%v: singular basis accepted", dense)
		}
	}
}
