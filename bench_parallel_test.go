package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/mip"
)

// blowupOptions bounds one benchmark solve of the E5 instance: enough
// nodes to exercise the tree without letting a degenerate run dominate
// the measurement.
func blowupOptions(workers int) mip.Options {
	return mip.Options{MaxNodes: 2000, Workers: workers}
}

// warmStartOptions is the serial E5 warm-start solve in the sparse LU
// basis or, with dense, in the explicit-inverse fallback.
func warmStartOptions(dense bool) mip.Options {
	opt := blowupOptions(1)
	opt.LP.DenseBasis = dense
	return opt
}

// benchBlowupSolve solves the n-job E5 instance once per iteration.
// Rebuilding the model inside the loop is part of the measured path on
// purpose — it is what every dynpsim self-tuning step pays — and it also
// resets the bound state between solves.
func benchBlowupSolve(b *testing.B, n int, opt mip.Options) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := blowupModel(n)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Solve(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelBnB measures one bounded branch-and-bound solve of the
// 7-job E5 blow-up instance per worker count. Speedup over the 1-worker
// case is bounded by GOMAXPROCS; on a single-CPU host all sub-benchmarks
// collapse to the same wall clock.
func BenchmarkParallelBnB(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			if w > 1 && runtime.GOMAXPROCS(0) == 1 {
				b.Logf("GOMAXPROCS=1: parallel speedup not observable on this host")
			}
			benchBlowupSolve(b, 7, blowupOptions(w))
		})
	}
}

// BenchmarkWarmStart measures the serial warm-start path on the 6-job E5
// instance in both basis representations; allocs/op tracks the simplex
// scratch pool and the ilpsched build arena. basis=sparse is the default
// LU + Forrest–Tomlin core, basis=dense the explicit-inverse fallback.
func BenchmarkWarmStart(b *testing.B) {
	b.Run("basis=sparse", func(b *testing.B) { benchBlowupSolve(b, 6, warmStartOptions(false)) })
	b.Run("basis=dense", func(b *testing.B) { benchBlowupSolve(b, 6, warmStartOptions(true)) })
}
