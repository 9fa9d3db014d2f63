package mip

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/stats"
)

func TestParallelKnapsackMatchesSerial(t *testing.T) {
	values := []float64{10, 13, 7, 8, 2, 9, 4}
	weights := []float64{3, 4, 2, 3, 1, 4, 2}
	for _, workers := range []int{1, 2, 4} {
		p, ints := knapsack(values, weights, 9)
		res, err := Solve(p, ints, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Status != Optimal {
			t.Fatalf("workers=%d: status = %v", workers, res.Status)
		}
		want := bruteKnapsack(values, weights, 9)
		if math.Abs(res.Objective-want) > 1e-6 {
			t.Fatalf("workers=%d: objective %g, want %g", workers, res.Objective, want)
		}
		for _, c := range ints {
			if f := res.X[c]; math.Abs(f-math.Round(f)) > 1e-6 {
				t.Fatalf("workers=%d: x[%d] = %g not integral", workers, c, f)
			}
		}
	}
}

// Property: the parallel solver proves the same optimum as brute force on
// random binary problems, regardless of its nondeterministic node order.
func TestParallelRandomBinaryProblemsMatchBruteForce(t *testing.T) {
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
		res, err := Solve(p, ints, Options{IntegralObjective: true, Workers: 4})
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
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelWorkerCounter(t *testing.T) {
	// Capacity 7 leaves the root relaxation fractional, so the solve
	// branches and actually spins up the worker pool.
	values := []float64{10, 13, 7, 8, 2}
	weights := []float64{3, 4, 2, 3, 1}
	p, ints := knapsack(values, weights, 7)
	reg := obs.NewRegistry()
	res, err := Solve(p, ints, Options{Workers: 3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if got := reg.Counter("mip.workers.active").Value(); got != 3 {
		t.Fatalf("mip.workers.active = %d, want 3", got)
	}
	if got := reg.Counter("mip.nodes").Value(); got != int64(res.Nodes) {
		t.Fatalf("mip.nodes = %d, result says %d", got, res.Nodes)
	}
}

func TestParallelCancellation(t *testing.T) {
	values := []float64{10, 13, 7, 8, 2, 9, 4}
	weights := []float64{3, 4, 2, 3, 1, 4, 2}
	p, ints := knapsack(values, weights, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SolveCtx(ctx, p, ints, Options{Workers: 4})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T, want *CanceledError", err)
	}
}

// The parallel bound trajectory must stay monotone even though workers
// pop nodes concurrently (min over popped + in-flight bounds).
func TestParallelBoundTrajectoryMonotone(t *testing.T) {
	values := []float64{10, 13, 7, 8, 2, 9, 4, 6, 11}
	weights := []float64{3, 4, 2, 3, 1, 4, 2, 3, 5}
	p, ints := knapsack(values, weights, 11)
	res, err := Solve(p, ints, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Bounds); i++ {
		if res.Bounds[i].Bound < res.Bounds[i-1].Bound {
			t.Fatalf("bound log not monotone at %d: %g after %g",
				i, res.Bounds[i].Bound, res.Bounds[i-1].Bound)
		}
	}
}
