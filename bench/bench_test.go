package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestWorkloadsSmoke runs every workload at toy size, untraced and
// traced, and checks that each reports every metric, fails nothing and
// passes its own correctness checks — the harness itself under test.
func TestWorkloadsSmoke(t *testing.T) {
	dir := t.TempDir()
	schedd := filepath.Join(dir, "schedd")
	if out, err := exec.Command("go", "build", "-o", schedd, "repro/cmd/schedd").CombinedOutput(); err != nil {
		t.Fatalf("building schedd: %v\n%s", err, out)
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := &config{workload: name, seed: 7, seconds: 0.4, size: 0.02, setups: 2, schedd: schedd, workdir: dir}
			res, err := measure(context.Background(), workloads[name], cfg, traced)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, attempted %d, failed %d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (traced %v): %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			if !traced {
				for _, d := range defs {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestILPStepsPinWorkers guards the determinism the exact counts rely on:
// the default worker count is GOMAXPROCS, whose opportunistic parallel
// search changes node counts from run to run.
func TestILPStepsPinWorkers(t *testing.T) {
	if w := ilpPipe(ilpStep{}).MIP.Workers; w != 1 {
		t.Fatalf("ilp_steps solves with %d workers, want 1", w)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
