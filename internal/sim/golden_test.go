package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/job"
	"repro/internal/stats"
	"repro/internal/workload"
)

// goldenDigest runs a simulation and hashes everything it decided: every
// step's instant, queue length, base profile and chosen policy, every
// completed job's (ID, Start, End) in completion order, and the summary
// counters. Any change to event order, plan adoption or the profile
// primitives shows up as a different digest.
func goldenDigest(t *testing.T, h hash.Hash, tr *job.Trace, ilp *ILPConfig) *Result {
	t.Helper()
	put := func(vs ...int64) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, v)
		}
	}
	cfg := DefaultConfig()
	cfg.ILP = ilp
	cfg.OnStep = func(sc *StepContext) {
		put(sc.Now, int64(len(sc.Waiting)))
		for _, st := range sc.Base.Steps() {
			put(st.Time, int64(st.Free))
		}
		fmt.Fprintf(h, "%s|", sc.Result.Chosen.Name())
	}
	s, err := New(tr, standard(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Completed {
		put(int64(c.Job.ID), c.Start, c.End)
	}
	put(int64(res.Steps), int64(res.Switches), int64(res.Replans),
		int64(math.Float64bits(res.SlowdownWeightedByArea())))
	return res
}

// smallILPTrace is a random 14-job trace on an 8-processor machine: small
// enough that every step's ILP solves to optimality well inside its
// budget, so the run is deterministic.
func smallILPTrace() *job.Trace {
	r := stats.NewRand(11)
	tr := &job.Trace{Processors: 8}
	var clock int64
	for i := 0; i < 14; i++ {
		clock += int64(r.Intn(120))
		run := int64(r.Intn(300) + 20)
		est := run + int64(r.Intn(200))
		tr.Jobs = append(tr.Jobs, j(i+1, clock, r.Intn(8)+1, est, run))
	}
	return tr
}

// The simulator's outcome is pinned: four 3000-job CTC traces under the
// paper's configuration and one small ILP-driven run must reproduce the
// digest recorded before the event loop was made incremental.
func TestGoldenSimulationDigest(t *testing.T) {
	const want = "8e3b9adda8184803ec6c03bef5a27c8a"
	h := sha256.New()
	for seed := uint64(1); seed <= 4; seed++ {
		tr, err := workload.Generate(workload.CTC(), 3000, seed)
		if err != nil {
			t.Fatal(err)
		}
		goldenDigest(t, h, tr, nil)
	}
	if res := goldenDigest(t, h, smallILPTrace(), ilpConfig(nil)); res.ILPSteps == 0 || res.ILPFallbacks != 0 {
		t.Fatalf("ILP run: %d steps, %d fallbacks; want solved steps only", res.ILPSteps, res.ILPFallbacks)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)[:16]); got != want {
		t.Fatalf("simulation digest %s, want %s", got, want)
	}
}
