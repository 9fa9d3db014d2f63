// bench_obs: micro-benchmark of the observability layer's cost on the
// branch-and-bound hot path. Three configurations solve the identical
// MIP:
//
//	disabled  — nil Tracer/Registry (the no-op default every caller gets)
//	counters  — Registry attached, no event tracing
//	tracing   — full JSONL event stream to io.Discard plus counters
//
// Compare disabled vs tracing with benchstat; the "disabled" column is
// the permanent price of shipping the solver instrumented, and must stay
// within 2% of a build without instrumentation (the no-op calls are a
// nil check each, verified allocation-free in internal/obs).
//
//	go test -run NONE -bench BenchmarkObsOverhead -benchmem .
package repro

import (
	"context"
	"io"
	"testing"

	"repro/internal/lp"
	"repro/internal/mip"
	"repro/internal/obs"
)

// obsBenchProblem builds a knapsack MIP hard enough to explore a real
// search tree but small enough to solve thousands of times.
func obsBenchProblem() (*lp.Problem, []int) {
	values := []float64{10, 13, 7, 8, 2, 11, 9, 6, 5, 12, 4, 3, 14, 9, 5}
	weights := []float64{3, 4, 2, 3, 1, 4, 3, 2, 2, 4, 1, 1, 5, 3, 2}
	p := lp.NewProblem()
	row := p.AddConstraint(lp.LE, 13)
	ints := make([]int, len(values))
	for j := range values {
		c := p.AddVariable(0, 1, -values[j], "x")
		p.SetCoeff(row, c, weights[j])
		ints[j] = c
	}
	return p, ints
}

func benchSolve(b *testing.B, opt mip.Options) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, ints := obsBenchProblem()
		res, err := mip.Solve(p, ints, opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != mip.Optimal {
			b.Fatalf("status = %v", res.Status)
		}
	}
}

// The disabled (nil-instrument) serving path must not allocate: it is
// the permanent cost of shipping the service instrumented. One op is a
// submission's work with every instrument off: labeled vectors from a
// nil registry, and a ctx span plus an event on a request context that
// carries a trace ID.
func TestObsServingPathDisabledAllocFree(t *testing.T) {
	var r *obs.Registry
	var tr *obs.Tracer
	vSub := r.CounterVec("schedd.submits.by_source", "source")
	hDur := r.HistogramVec("schedd.replan.duration.ms", []float64{1, 10, 100}, "kind")
	ctx := obs.WithTraceID(context.Background(), "0123456789abcdef")
	if allocs := testing.AllocsPerRun(1000, func() {
		vSub.With("loadgen").Inc()
		sctx, sp := tr.StartSpanCtx(ctx, "schedd.admit", obs.Str("source", "loadgen"), obs.Int("width", 4))
		tr.EmitCtx(sctx, "schedd.submit", obs.Int("job", 1), obs.Str("source", "loadgen"))
		sp.End(obs.Str("outcome", "accepted"))
		hDur.With("step").Observe(5)
	}); allocs != 0 {
		t.Errorf("disabled obs path allocates %.1f objects per op, want 0", allocs)
	}
}

func BenchmarkObsOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		benchSolve(b, mip.Options{})
	})
	b.Run("counters", func(b *testing.B) {
		reg := obs.NewRegistry()
		benchSolve(b, mip.Options{Metrics: reg})
	})
	b.Run("tracing", func(b *testing.B) {
		reg := obs.NewRegistry()
		tr := obs.NewTracer(io.Discard)
		benchSolve(b, mip.Options{Metrics: reg, Trace: tr})
	})
}
