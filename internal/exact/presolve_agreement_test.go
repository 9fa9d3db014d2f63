package exact

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ilpsched"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/mip"
	"repro/internal/policy"
	"repro/internal/schedule"
	"repro/internal/stats"
)

// Cross-validation of the presolve pass against ground truth: the
// *presolved* time-indexed ILP at scale 1 must agree exactly with the
// order-enumeration optimum — the same oracle TestILPAgreesWithExact
// holds the unreduced model to.
func TestPresolvedILPAgreesWithExact(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		mSize := r.Intn(4) + 2
		base := machine.New(mSize, 0)
		if r.Intn(2) == 0 {
			base.Reserve(0, int64(r.Intn(30)+1), r.Intn(mSize)+1)
		}
		n := r.Intn(4) + 1
		jobs := make([]*job.Job, n)
		for k := range jobs {
			jobs[k] = jb(k+1, 0, r.Intn(mSize)+1, int64(r.Intn(30)+5))
		}
		exactSch, exactObj, err := Solve(0, base, jobs)
		if err != nil {
			return false
		}
		var horizon int64
		var seeds []*schedule.Schedule
		for _, p := range policy.Standard() {
			s, err := policy.Build(p, 0, base, jobs)
			if err != nil {
				return false
			}
			seeds = append(seeds, s)
			if mk := s.Makespan(); mk > horizon {
				horizon = mk
			}
		}
		// Same horizon extension as TestILPAgreesWithExact: the optimum
		// must be representable on the grid for the comparison to hold.
		if mk := exactSch.Makespan(); mk > horizon {
			horizon = mk
		}
		inst := &ilpsched.Instance{Now: 0, Machine: mSize, Base: base,
			Jobs: jobs, Horizon: horizon}
		m, st, err := ilpsched.BuildPresolved(inst, 1, ilpsched.PresolveOptions{Seeds: seeds})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		sol, err := m.Solve(mip.Options{MaxNodes: 20000})
		if err != nil || sol.MIP.Status != mip.Optimal {
			t.Logf("seed %d: presolved ilp status %v err %v", seed, sol.MIP.Status, err)
			return false
		}
		if math.Abs(sol.Objective-exactObj) > 1e-6 {
			t.Logf("seed %d: presolved ilp %g exact %g (stats %+v)",
				seed, sol.Objective, exactObj, st)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
