package mip_test

import (
	"runtime"
	"testing"

	"repro/internal/ilpsched"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/mip"
)

// Per explored node, a search on allocModel's model allocated about
// 10 100 bytes in 25 allocations while every child copied its root path
// and every node solve allocated its simplex, solution and basis; it
// allocates about 1 750 bytes in 7 now. The bounds leave room for pool
// misses after a collection.
const (
	maxBytesPerNode  = 2500
	maxAllocsPerNode = 10
)

// allocModel is a self-tuning step of the size the CTC steps typically
// have: 7 waiting jobs on a 256-node machine, 27 rows and 125 columns
// on a 20-minute grid. A 50-node search stops at the node limit.
func allocModel(t *testing.T) *ilpsched.Model {
	t.Helper()
	jobs := []*job.Job{
		{ID: 1, Width: 40, Estimate: 3600, Runtime: 3600},
		{ID: 2, Width: 100, Estimate: 1800, Runtime: 1800},
		{ID: 3, Width: 64, Estimate: 5400, Runtime: 5400},
		{ID: 4, Width: 200, Estimate: 2400, Runtime: 2400},
		{ID: 5, Width: 16, Estimate: 7200, Runtime: 7200},
		{ID: 6, Width: 128, Estimate: 1200, Runtime: 1200},
		{ID: 7, Width: 80, Estimate: 3000, Runtime: 3000},
	}
	inst := &ilpsched.Instance{Now: 0, Machine: 256, Base: machine.New(256, 0), Jobs: jobs, Horizon: 14400}
	m, err := ilpsched.Build(inst, 1200)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestNodeAllocations guards the per-node allocation cost of the branch
// and bound: the bytes and the allocations of a whole solve (model
// heuristic and brancher included), divided by the nodes it explores.
func TestNodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	m := allocModel(t)
	var nodes int
	solve := func() {
		sol, err := m.Solve(mip.Options{Workers: 1, MaxNodes: 50})
		if err != nil {
			t.Fatal(err)
		}
		nodes = sol.MIP.Nodes
	}
	solve() // fill the pools
	const runs = 20
	allocs := testing.AllocsPerRun(runs, solve)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		solve()
	}
	runtime.ReadMemStats(&after)
	bytesPerNode := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(nodes)
	allocsPerNode := allocs / float64(nodes)
	t.Logf("%d nodes: %.0f bytes and %.1f allocations per node", nodes, bytesPerNode, allocsPerNode)
	if bytesPerNode > maxBytesPerNode {
		t.Errorf("%.0f bytes per node, want at most %d", bytesPerNode, maxBytesPerNode)
	}
	if allocsPerNode > maxAllocsPerNode {
		t.Errorf("%.1f allocations per node, want at most %d", allocsPerNode, maxAllocsPerNode)
	}
}
