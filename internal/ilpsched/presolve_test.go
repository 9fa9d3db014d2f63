package ilpsched

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/mip"
	"repro/internal/policy"
	"repro/internal/schedule"
	"repro/internal/stats"

	"repro/internal/job"
)

// randomInstance builds a random-but-valid instance plus its policy
// schedules (seeds for presolve, horizon source), the shape shared by the
// property tests below.
func randomInstance(r *stats.Rand) (*Instance, []*schedule.Schedule) {
	mSize := r.Intn(4) + 2
	base := machine.New(mSize, 0)
	if r.Intn(2) == 0 {
		base.Reserve(0, int64(r.Intn(40)+1), r.Intn(mSize)+1)
	}
	n := r.Intn(4) + 2
	jobs := make([]*job.Job, n)
	for k := 0; k < n; k++ {
		var submit int64
		if r.Intn(3) == 0 {
			submit = int64(r.Intn(30))
		}
		jobs[k] = jb(k+1, submit, r.Intn(mSize)+1, int64(r.Intn(40)+5))
	}
	var horizon int64
	var seeds []*schedule.Schedule
	for _, p := range policy.Standard() {
		s, err := policy.Build(p, 0, base, jobs)
		if err != nil {
			return nil, nil
		}
		seeds = append(seeds, s)
		if mk := s.Makespan(); mk > horizon {
			horizon = mk
		}
	}
	return &Instance{Now: 0, Machine: mSize, Base: base, Jobs: jobs, Horizon: horizon}, seeds
}

// The central safety property of the tentpole: on random instances the
// presolved model proves the same optimal objective as the unreduced one,
// at scale 1 and on coarse grids, with and without upper-bound seeds.
func TestBuildPresolvedAgreesWithBuild(t *testing.T) {
	scales := []int64{1, 1, 7, 15}
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		i, seeds := randomInstance(r)
		if i == nil {
			return false
		}
		scale := scales[r.Intn(len(scales))]
		if r.Intn(2) == 0 {
			seeds = nil // presolve must be safe without any seed too
		}
		full, err := Build(i, scale)
		if err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}
		fullSol, err := full.Solve(mip.Options{MaxNodes: 30000})
		if err != nil || fullSol.MIP.Status != mip.Optimal {
			t.Logf("seed %d: full solve: %v %v", seed, fullSol, err)
			return false
		}
		red, st, err := BuildPresolved(i, scale, PresolveOptions{Seeds: seeds})
		if err != nil {
			t.Logf("seed %d: presolve: %v", seed, err)
			return false
		}
		if st.VarsAfter > st.VarsBefore || st.RowsAfter > st.RowsBefore ||
			st.EntriesAfter > st.EntriesBefore || st.VarsAfter < 0 {
			t.Logf("seed %d: stats not a reduction: %+v", seed, st)
			return false
		}
		redSol, err := red.Solve(mip.Options{MaxNodes: 30000})
		if err != nil || redSol.MIP.Status != mip.Optimal {
			t.Logf("seed %d: reduced solve: %v %v", seed, redSol, err)
			return false
		}
		if math.Abs(redSol.Objective-fullSol.Objective) > 1e-6 {
			t.Logf("seed %d scale %d: presolved %g, full %g (stats %+v)",
				seed, scale, redSol.Objective, fullSol.Objective, st)
			return false
		}
		if err := redSol.Compacted.Validate(i.Base); err != nil {
			t.Logf("seed %d: compacted infeasible: %v", seed, err)
			return false
		}
		if len(redSol.Grid.Entries) != len(i.Jobs) {
			t.Logf("seed %d: grid schedule covers %d/%d jobs",
				seed, len(redSol.Grid.Entries), len(i.Jobs))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Round trip of the postsolve map: a reduced solution lifted with
// PostsolveX is a feasible vector of the full model with the same Eq. 2
// objective, and seeding the full search with it cannot be beaten.
func TestPostsolveXRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		i, seeds := randomInstance(r)
		if i == nil {
			return false
		}
		full, err := Build(i, 1)
		if err != nil {
			return false
		}
		red, _, err := BuildPresolved(i, 1, PresolveOptions{Seeds: seeds})
		if err != nil {
			t.Logf("seed %d: presolve: %v", seed, err)
			return false
		}
		redSol, err := red.Solve(mip.Options{MaxNodes: 30000})
		if err != nil || redSol.MIP.Status != mip.Optimal {
			return false
		}
		x, err := full.PostsolveX(red, redSol.MIP.X)
		if err != nil {
			t.Logf("seed %d: postsolve: %v", seed, err)
			return false
		}
		// The lifted vector reproduces the reduced objective (which
		// already includes the offset of the presolve-fixed jobs).
		if got := full.ObjectiveOfVector(x); math.Abs(got-redSol.Objective) > 1e-6 {
			t.Logf("seed %d: lifted objective %g, reduced %g", seed, got, redSol.Objective)
			return false
		}
		// And it is accepted as a full-model incumbent that the exact
		// search cannot improve past the proven optimum.
		fullSol, err := full.Solve(mip.Options{MaxNodes: 30000, Incumbent: x})
		if err != nil || fullSol.MIP.Status != mip.Optimal {
			t.Logf("seed %d: seeded full solve: %v %v", seed, fullSol, err)
			return false
		}
		if math.Abs(fullSol.Objective-redSol.Objective) > 1e-6 {
			t.Logf("seed %d: seeded full %g, reduced %g", seed, fullSol.Objective, redSol.Objective)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// A single waiting job is fully decided by presolve: the canonical list
// schedule is the lower bound, so the cost-bound trim pins it and the
// model solves without any LP.
func TestPresolveFixesSingleJob(t *testing.T) {
	base := machine.New(4, 0)
	base.Reserve(0, 50, 3) // running job: width-2 job must wait until 50
	i := &Instance{Now: 0, Machine: 4, Base: base, Horizon: 200,
		Jobs: []*job.Job{jb(1, 0, 2, 60)}}
	red, st, err := BuildPresolved(i, 10, PresolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.JobsFixed != 1 || st.VarsAfter != 0 {
		t.Fatalf("stats = %+v, want the job fixed and no variables", st)
	}
	sol, err := red.Solve(mip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Grid.Find(1).Start; got != 50 {
		t.Fatalf("fixed start %d, want 50", got)
	}
	full, err := Build(i, 10)
	if err != nil {
		t.Fatal(err)
	}
	fullSol, err := full.Solve(mip.Options{MaxNodes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-fullSol.Objective) > 1e-9 {
		t.Fatalf("fixed objective %g, full %g", sol.Objective, fullSol.Objective)
	}
}

// Presolve proves grid infeasibility when a reservation blocks every
// possible start of a job, instead of materializing a doomed model.
func TestPresolveDetectsInfeasible(t *testing.T) {
	base := machine.New(4, 0)
	base.Reserve(0, 1000, 3) // only 1 processor free over the whole grid
	i := &Instance{Now: 0, Machine: 4, Base: base, Horizon: 400,
		Jobs: []*job.Job{jb(1, 0, 2, 50)}}
	_, _, err := BuildPresolved(i, 10, PresolveOptions{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// EstimatePresolvedSize predicts exactly what BuildPresolved materializes,
// and BuildPresolvedGuarded admits instances whose *unreduced* size the
// plain guard rejects — the satellite fix for ErrModelTooLarge.
func TestGuardAppliesToReducedSize(t *testing.T) {
	i, seeds := randomInstance(stats.NewRand(5))
	if i == nil {
		t.Fatal("bad fixture seed")
	}
	opt := PresolveOptions{Seeds: seeds}
	vars, entries, err := EstimatePresolvedSize(i, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	red, st, err := BuildPresolved(i, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if vars != st.VarsAfter || entries != st.EntriesAfter {
		t.Fatalf("estimate (%d, %d) != stats (%d, %d)", vars, entries, st.VarsAfter, st.EntriesAfter)
	}
	if red.NumVariables() != vars {
		t.Fatalf("materialized %d vars, estimated %d", red.NumVariables(), vars)
	}
	if st.VarsRemoved() <= 0 {
		t.Fatalf("fixture seed produced no reduction: %+v", st)
	}
	// A limit strictly between the reduced and unreduced size: the plain
	// guard refuses, the presolved guard builds.
	lim := SizeLimit{MaxVariables: st.VarsAfter}
	if _, err := BuildGuarded(i, 1, lim); !errors.Is(err, ErrModelTooLarge) {
		t.Fatalf("unreduced guard: err = %v, want ErrModelTooLarge", err)
	}
	if _, _, err := BuildPresolvedGuarded(i, 1, lim, opt); err != nil {
		t.Fatalf("reduced guard rejected a fitting model: %v", err)
	}
	// And the reduced guard still fires below the reduced size.
	tight := SizeLimit{MaxVariables: st.VarsAfter - 1}
	if _, _, err := BuildPresolvedGuarded(i, 1, tight, opt); !errors.Is(err, ErrModelTooLarge) {
		t.Fatalf("tight reduced guard: err = %v, want ErrModelTooLarge", err)
	}
}

// Dominance trimming must not reject seed schedules that order an
// identical-shape group differently: IncumbentFromSchedule canonicalizes
// the group order before extracting starts.
func TestIncumbentSurvivesDominanceGroups(t *testing.T) {
	// Three identical jobs on a 2-wide machine: Q=2, a 3-member group.
	i := inst(2, 0, 400, jb(1, 0, 1, 50), jb(2, 0, 1, 50), jb(3, 0, 1, 50))
	red, st, err := BuildPresolved(i, 10, PresolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.VarsRemoved() <= 0 {
		t.Fatalf("identical jobs produced no dominance reduction: %+v", st)
	}
	// A seed in reverse ID order would violate the canonical windows
	// without canonicalization.
	seed := &schedule.Schedule{Now: 0, Machine: 2, Entries: []schedule.Entry{
		{Job: i.Jobs[2], Start: 0}, {Job: i.Jobs[1], Start: 0}, {Job: i.Jobs[0], Start: 100},
	}}
	x, err := red.IncumbentFromSchedule(seed)
	if err != nil {
		t.Fatalf("canonicalized seed rejected: %v", err)
	}
	sol, err := red.Solve(mip.Options{MaxNodes: 5000, Incumbent: x})
	if err != nil || sol.MIP.Status != mip.Optimal {
		t.Fatalf("seeded solve: %v %v", sol, err)
	}
}
