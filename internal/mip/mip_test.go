package mip

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lp"
	"repro/internal/stats"
)

// knapsack builds min -sum(v_j x_j) s.t. sum(w_j x_j) <= cap, x binary.
func knapsack(values, weights []float64, capacity float64) (*lp.Problem, []int) {
	p := lp.NewProblem()
	row := p.AddConstraint(lp.LE, capacity)
	ints := make([]int, len(values))
	for j := range values {
		c := p.AddVariable(0, 1, -values[j], "x")
		p.SetCoeff(row, c, weights[j])
		ints[j] = c
	}
	return p, ints
}

// bruteKnapsack enumerates all subsets.
func bruteKnapsack(values, weights []float64, capacity float64) float64 {
	n := len(values)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		var v, w float64
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				v += values[j]
				w += weights[j]
			}
		}
		if w <= capacity && v > best {
			best = v
		}
	}
	return -best
}

func TestKnapsackSmall(t *testing.T) {
	values := []float64{10, 13, 7, 8, 2}
	weights := []float64{3, 4, 2, 3, 1}
	p, ints := knapsack(values, weights, 7)
	res, err := Solve(p, ints, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	want := bruteKnapsack(values, weights, 7)
	if math.Abs(res.Objective-want) > 1e-6 {
		t.Fatalf("objective %g, want %g", res.Objective, want)
	}
	for _, c := range ints {
		if f := res.X[c]; math.Abs(f-math.Round(f)) > 1e-6 {
			t.Fatalf("x[%d] = %g not integral", c, f)
		}
	}
}

func TestIntegerRounding(t *testing.T) {
	// min -x s.t. 2x <= 5, x integer in [0, 10] -> x = 2.
	p := lp.NewProblem()
	x := p.AddVariable(0, 10, -1, "x")
	r := p.AddConstraint(lp.LE, 5)
	p.SetCoeff(r, x, 2)
	res, err := Solve(p, []int{x}, Options{IntegralObjective: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.X[x]-2) > 1e-6 {
		t.Fatalf("got %v x=%g, want optimal x=2", res.Status, res.X[x])
	}
}

func TestInfeasibleMIP(t *testing.T) {
	// x + y = 1 with x,y binary and x+y >= 2... simpler: 2x = 1, x binary.
	p := lp.NewProblem()
	x := p.AddVariable(0, 1, 0, "x")
	r := p.AddConstraint(lp.EQ, 1)
	p.SetCoeff(r, x, 2)
	res, err := Solve(p, []int{x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestLPInfeasibleRoot(t *testing.T) {
	p := lp.NewProblem()
	x := p.AddVariable(0, 1, 0, "x")
	r := p.AddConstraint(lp.GE, 5)
	p.SetCoeff(r, x, 1)
	res, err := Solve(p, []int{x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestUnboundedRoot(t *testing.T) {
	p := lp.NewProblem()
	x := p.AddVariable(0, lp.Inf, -1, "x")
	y := p.AddVariable(0, 1, 0, "y")
	r := p.AddConstraint(lp.LE, 1)
	p.SetCoeff(r, y, 1)
	res, err := Solve(p, []int{x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
}

func TestInitialIncumbent(t *testing.T) {
	values := []float64{5, 5, 5}
	weights := []float64{2, 2, 2}
	p, ints := knapsack(values, weights, 4)
	// Feasible incumbent: take item 0 only (value 5).
	inc := []float64{1, 0, 0}
	res, err := Solve(p, ints, Options{Incumbent: inc})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Objective-(-10)) > 1e-6 {
		t.Fatalf("got %v %g, want optimal -10", res.Status, res.Objective)
	}

	// An infeasible incumbent must be rejected with an error.
	bad := []float64{1, 1, 1} // weight 6 > 4
	if _, err := Solve(p, ints, Options{Incumbent: bad}); err == nil {
		t.Fatal("infeasible incumbent accepted")
	}
	// A fractional incumbent must be rejected too.
	frac := []float64{0.5, 0, 0}
	if _, err := Solve(p, ints, Options{Incumbent: frac}); err == nil {
		t.Fatal("fractional incumbent accepted")
	}
}

func TestNodeLimitWithIncumbent(t *testing.T) {
	values := []float64{10, 13, 7, 8, 2, 9, 4, 6}
	weights := []float64{3, 4, 2, 3, 1, 4, 2, 3}
	p, ints := knapsack(values, weights, 9)
	inc := make([]float64, len(values)) // empty knapsack, objective 0
	res, err := Solve(p, ints, Options{MaxNodes: 1, Incumbent: inc})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Feasible && res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Status == Feasible && res.Gap() < 0 {
		t.Fatalf("negative gap %g", res.Gap())
	}
}

func TestNodeLimitWithoutIncumbent(t *testing.T) {
	values := []float64{10, 13, 7}
	weights := []float64{3, 4, 2}
	p, ints := knapsack(values, weights, 5)
	res, err := Solve(p, ints, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One node may already find an integral optimum via the LP; accept
	// either, but a NoSolution result must carry no solution vector.
	if res.Status == NoSolution && res.X != nil {
		t.Fatal("NoSolution with a solution vector")
	}
}

func TestHeuristicProvidesIncumbent(t *testing.T) {
	values := []float64{10, 13, 7, 8}
	weights := []float64{3, 4, 2, 3}
	p, ints := knapsack(values, weights, 7)
	calls := 0
	h := func(x []float64) ([]float64, bool) {
		calls++
		// Greedy rounding: take items while capacity remains.
		out := make([]float64, len(x))
		capLeft := 7.0
		for j := range x {
			if x[j] > 0.5 && weights[j] <= capLeft {
				out[j] = 1
				capLeft -= weights[j]
			}
		}
		return out, true
	}
	res, err := Solve(p, ints, Options{Heuristic: h})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	want := bruteKnapsack(values, weights, 7)
	if math.Abs(res.Objective-want) > 1e-6 {
		t.Fatalf("objective %g, want %g", res.Objective, want)
	}
	if calls == 0 && res.Nodes > 1 {
		t.Fatal("heuristic never invoked despite branching")
	}
}

func TestBadHeuristicIsIgnored(t *testing.T) {
	values := []float64{10, 13, 7}
	weights := []float64{3, 4, 2}
	p, ints := knapsack(values, weights, 5)
	h := func(x []float64) ([]float64, bool) {
		return []float64{1, 1, 1}, true // infeasible: weight 9 > 5
	}
	res, err := Solve(p, ints, Options{Heuristic: h})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteKnapsack(values, weights, 5)
	if res.Status != Optimal || math.Abs(res.Objective-want) > 1e-6 {
		t.Fatalf("got %v %g, want optimal %g", res.Status, res.Objective, want)
	}
}

func TestRelativeGapTermination(t *testing.T) {
	values := []float64{10, 13, 7, 8, 2, 9}
	weights := []float64{3, 4, 2, 3, 1, 4}
	p, ints := knapsack(values, weights, 8)
	res, err := Solve(p, ints, Options{RelativeGap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal && res.Status != Feasible {
		t.Fatalf("status = %v", res.Status)
	}
	want := bruteKnapsack(values, weights, 8)
	// Within 50% of optimal.
	if res.Objective > want*0.5+1e-9 {
		t.Fatalf("gap solution %g not within 50%% of %g", res.Objective, want)
	}
}

func TestBadIntegerColumn(t *testing.T) {
	p := lp.NewProblem()
	p.AddVariable(0, 1, 0, "x")
	if _, err := Solve(p, []int{5}, Options{}); err == nil {
		t.Fatal("out-of-range integer column accepted")
	}
}

// Property: branch and bound matches brute force on random binary
// knapsack-style problems with two constraints.
func TestRandomBinaryProblemsMatchBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		n := r.Intn(9) + 2
		p := lp.NewProblem()
		rows := []int{p.AddConstraint(lp.LE, float64(r.Intn(12)+3)), p.AddConstraint(lp.LE, float64(r.Intn(12)+3))}
		costs := make([]float64, n)
		w1 := make([]float64, n)
		w2 := make([]float64, n)
		ints := make([]int, n)
		for j := 0; j < n; j++ {
			costs[j] = float64(r.Intn(21) - 10)
			w1[j] = float64(r.Intn(5))
			w2[j] = float64(r.Intn(5))
			c := p.AddVariable(0, 1, costs[j], "x")
			p.SetCoeff(rows[0], c, w1[j])
			p.SetCoeff(rows[1], c, w2[j])
			ints[j] = c
		}
		res, err := Solve(p, ints, Options{IntegralObjective: true})
		if err != nil || res.Status != Optimal {
			t.Logf("seed %d: %v %v", seed, res, err)
			return false
		}
		_, rhs1 := p.Row(rows[0])
		_, rhs2 := p.Row(rows[1])
		best := math.Inf(1)
		for mask := 0; mask < 1<<n; mask++ {
			var c, a, b float64
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					c += costs[j]
					a += w1[j]
					b += w2[j]
				}
			}
			if a <= rhs1 && b <= rhs2 && c < best {
				best = c
			}
		}
		if math.Abs(res.Objective-best) > 1e-6 {
			t.Logf("seed %d: mip %g brute %g", seed, res.Objective, best)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: general (non-binary) integer variables also match brute force.
func TestRandomIntegerProblemsMatchBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		n := r.Intn(3) + 2 // 2..4 vars with range [0,3]: <= 256 combos
		p := lp.NewProblem()
		row := p.AddConstraint(lp.LE, float64(r.Intn(10)+2))
		costs := make([]float64, n)
		w := make([]float64, n)
		ints := make([]int, n)
		for j := 0; j < n; j++ {
			costs[j] = float64(r.Intn(11) - 5)
			w[j] = float64(r.Intn(4))
			c := p.AddVariable(0, 3, costs[j], "x")
			p.SetCoeff(row, c, w[j])
			ints[j] = c
		}
		res, err := Solve(p, ints, Options{IntegralObjective: true})
		if err != nil || res.Status != Optimal {
			return false
		}
		_, rhs := p.Row(row)
		best := math.Inf(1)
		var rec func(j int, c, a float64)
		rec = func(j int, c, a float64) {
			if a > rhs {
				return
			}
			if j == n {
				if c < best {
					best = c
				}
				return
			}
			for v := 0.0; v <= 3; v++ {
				rec(j+1, c+costs[j]*v, a+w[j]*v)
			}
		}
		rec(0, 0, 0)
		return math.Abs(res.Objective-best) <= 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKnapsack12(b *testing.B) {
	r := stats.NewRand(3)
	values := make([]float64, 12)
	weights := make([]float64, 12)
	for j := range values {
		values[j] = float64(r.Intn(20) + 1)
		weights[j] = float64(r.Intn(8) + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, ints := knapsack(values, weights, 30)
		res, err := Solve(p, ints, Options{IntegralObjective: true})
		if err != nil || res.Status != Optimal {
			b.Fatalf("%v %v", res, err)
		}
	}
}

// Pseudocost learning must not change correctness: larger knapsacks with
// repeated structure still match brute force (the pseudocost path is the
// default brancher, exercised once columns gather history).
func TestPseudocostCorrectness(t *testing.T) {
	r := stats.NewRand(99)
	for trial := 0; trial < 25; trial++ {
		n := 12
		values := make([]float64, n)
		weights := make([]float64, n)
		for j := range values {
			values[j] = float64(r.Intn(25) + 1)
			weights[j] = float64(r.Intn(7) + 1)
		}
		capacity := float64(r.Intn(20) + 8)
		p, ints := knapsack(values, weights, capacity)
		res, err := Solve(p, ints, Options{IntegralObjective: true})
		if err != nil || res.Status != Optimal {
			t.Fatalf("trial %d: %v %v", trial, res, err)
		}
		want := bruteKnapsack(values, weights, capacity)
		if math.Abs(res.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: mip %g brute %g", trial, res.Objective, want)
		}
	}
}

func TestGapEdgeCases(t *testing.T) {
	opt := &Result{Status: Optimal, Objective: 5, BestBound: 5}
	if opt.Gap() != 0 {
		t.Fatalf("optimal gap = %v", opt.Gap())
	}
	feas := &Result{Status: Feasible, Objective: 10, BestBound: 8}
	if g := feas.Gap(); math.Abs(g-0.2) > 1e-12 {
		t.Fatalf("gap = %v, want 0.2", g)
	}
}

func TestStatusStrings(t *testing.T) {
	want := map[Status]string{
		Optimal: "optimal", Feasible: "feasible", Infeasible: "infeasible",
		NoSolution: "no-solution", Unbounded: "unbounded",
	}
	for st, s := range want {
		if st.String() != s {
			t.Fatalf("%d.String() = %q, want %q", st, st.String(), s)
		}
	}
}
