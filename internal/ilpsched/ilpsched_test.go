package ilpsched

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/job"
	"repro/internal/lp"
	"repro/internal/machine"
	"repro/internal/mip"
	"repro/internal/policy"
	"repro/internal/schedule"
	"repro/internal/stats"
)

func jb(id int, submit int64, width int, est int64) *job.Job {
	return &job.Job{ID: id, Submit: submit, Width: width, Estimate: est, Runtime: est}
}

func inst(m int, now int64, horizon int64, jobs ...*job.Job) *Instance {
	return &Instance{
		Now: now, Machine: m, Base: machine.New(m, now),
		Jobs: jobs, Horizon: horizon,
	}
}

func TestInstanceValidate(t *testing.T) {
	ok := inst(4, 0, 1000, jb(1, 0, 2, 100))
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Instance){
		func(i *Instance) { i.Machine = 0 },
		func(i *Instance) { i.Base = nil },
		func(i *Instance) { i.Base = machine.New(8, 0) }, // size mismatch
		func(i *Instance) { i.Jobs = nil },
		func(i *Instance) { i.Horizon = 0 },
		func(i *Instance) { i.Jobs = []*job.Job{jb(1, 0, 9, 100)} },  // too wide
		func(i *Instance) { i.Jobs = []*job.Job{jb(1, 0, 2, 2000)} }, // beyond horizon
	}
	for k, mut := range cases {
		bad := inst(4, 0, 1000, jb(1, 0, 2, 100))
		mut(bad)
		if err := bad.Validate(); err == nil {
			t.Fatalf("case %d accepted", k)
		}
	}
}

func TestTimeScaleEq6(t *testing.T) {
	// Table-1-sized instance: makespan ~85559 s, acc runtime ~1.8e6 s.
	// sqrt(85559 * 1.8e6 * 102.4 / 2GiB) = sqrt(7343) ~ 86 s -> 120 s.
	i := inst(430, 0, 85559, jb(1, 0, 4, 100))
	i.Jobs[0].Estimate = 1800000 // forces acc runtime; bypass Validate
	s := DefaultScaling()
	s.SlotCap = 0 // pure Eq. 6
	got := s.TimeScale(i)
	if got != 120 {
		t.Fatalf("TimeScale = %d, want 120", got)
	}
	// With the default slot cap of 360 the same instance needs a coarser
	// grid: ceil(85559/360) = 238 -> 240 s.
	if got := DefaultScaling().TimeScale(i); got != 240 {
		t.Fatalf("slot-capped TimeScale = %d, want 240", got)
	}
}

func TestTimeScaleRounding(t *testing.T) {
	i := inst(4, 0, 1000, jb(1, 0, 2, 100))
	s := DefaultScaling()
	// Tiny instance: raw scale << 60 -> rounded up to 60.
	if got := s.TimeScale(i); got != 60 {
		t.Fatalf("TimeScale = %d, want 60", got)
	}
	// Without rounding or a slot cap, a tiny instance scales to 1 second.
	s.RoundTo = 1
	s.SlotCap = 0
	if got := s.TimeScale(i); got != 1 {
		t.Fatalf("unrounded TimeScale = %d, want 1", got)
	}
	// The slot cap alone coarsens it: 1000 s / 360 slots -> 3 s.
	s.SlotCap = 360
	if got := s.TimeScale(i); got != 3 {
		t.Fatalf("slot-capped TimeScale = %d, want 3", got)
	}
	// Larger memory -> finer scale (monotonicity).
	big := DefaultScaling()
	big.MemoryBytes *= 100
	iBig := inst(430, 0, 85559, jb(1, 0, 4, 100))
	iBig.Jobs[0].Estimate = 1800000
	if big.TimeScale(iBig) > DefaultScaling().TimeScale(iBig) {
		t.Fatal("more memory should not coarsen the scale")
	}
}

func TestBuildStructure(t *testing.T) {
	// 2 jobs, scale 10, horizon 100 -> 10 base slots + 3 slack.
	i := inst(4, 0, 100, jb(1, 0, 2, 25), jb(2, 0, 4, 30))
	m, err := Build(i, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m.Slots != 13 {
		t.Fatalf("slots = %d, want 13", m.Slots)
	}
	// Job 1: dur 3 slots, starts 0..10 -> 11 vars; job 2: dur 3, 11 vars.
	if m.NumVariables() != 22 {
		t.Fatalf("vars = %d, want 22", m.NumVariables())
	}
	// Rows: 13 capacity + 2 assignment.
	if m.NumConstraints() != 15 {
		t.Fatalf("rows = %d, want 15", m.NumConstraints())
	}
	if m.MatrixEntries() == 0 {
		t.Fatal("no matrix entries")
	}
}

func TestBuildCapacitiesFromHistory(t *testing.T) {
	base := machine.New(4, 0)
	if err := base.Reserve(0, 35, 3); err != nil { // running job until 35
		t.Fatal(err)
	}
	i := &Instance{Now: 0, Machine: 4, Base: base, Horizon: 100,
		Jobs: []*job.Job{jb(1, 0, 1, 10)}}
	m, err := Build(i, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Slots 0..2 fully inside the reservation: capacity 1. Slot 3 covers
	// [30,40): the minimum free inside is still 1 (conservative). Slot 4+: 4.
	want := []int{1, 1, 1, 1, 4}
	for k, w := range want {
		if m.capacity[k] != w {
			t.Fatalf("capacity[%d] = %d, want %d", k, m.capacity[k], w)
		}
	}
}

func TestSolveTinyOptimal(t *testing.T) {
	// M=2: A(w=2,d=10), B(w=1,d=100), C(w=1,d=100). ARTwW-optimal: A
	// first (obj 10*2 + 110 + 110 = 240), not B||C first (100+100+220=420).
	i := inst(2, 0, 250,
		jb(1, 0, 2, 10), jb(2, 0, 1, 100), jb(3, 0, 1, 100))
	m, err := Build(i, 1)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := m.Solve(mip.Options{MaxNodes: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if sol.MIP.Status != mip.Optimal {
		t.Fatalf("status = %v", sol.MIP.Status)
	}
	if math.Abs(sol.MIP.Objective-240) > 1e-6 {
		t.Fatalf("objective = %g, want 240", sol.MIP.Objective)
	}
	if e := sol.Compacted.Find(1); e.Start != 0 {
		t.Fatalf("job 1 start %d, want 0", e.Start)
	}
	if err := sol.Compacted.Validate(i.Base); err != nil {
		t.Fatal(err)
	}
	// Objective of the compacted schedule matches the MIP objective at
	// scale 1 (no grid slack to repair).
	if got := ObjectiveOfSchedule(sol.Compacted); math.Abs(got-240) > 1e-9 {
		t.Fatalf("compacted objective %g, want 240", got)
	}
}

func TestCompactionRepairsGridSlack(t *testing.T) {
	// Coarse scale forces grid starts; compaction must pull jobs forward
	// so that no artificial idle time remains.
	i := inst(2, 0, 300, jb(1, 0, 2, 25), jb(2, 0, 2, 25))
	m, err := Build(i, 60)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := m.Solve(mip.Options{MaxNodes: 500})
	if err != nil {
		t.Fatal(err)
	}
	if sol.MIP.Status != mip.Optimal {
		t.Fatalf("status = %v", sol.MIP.Status)
	}
	// Grid schedule: one job at slot 0, the other at slot 1 (start 60).
	// Compacted: 0 and 25.
	starts := []int64{sol.Compacted.Find(1).Start, sol.Compacted.Find(2).Start}
	if !(starts[0] == 0 && starts[1] == 25 || starts[0] == 25 && starts[1] == 0) {
		t.Fatalf("compacted starts %v, want {0, 25}", starts)
	}
	grid := []int64{sol.Grid.Find(1).Start, sol.Grid.Find(2).Start}
	if !(grid[0] == 0 && grid[1] == 60 || grid[0] == 60 && grid[1] == 0) {
		t.Fatalf("grid starts %v, want {0, 60}", grid)
	}
}

func TestIncumbentFromSchedule(t *testing.T) {
	i := inst(4, 0, 500, jb(1, 0, 2, 100), jb(2, 0, 4, 50), jb(3, 0, 1, 200))
	m, err := Build(i, 30)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := policy.Build(policy.SJF{}, 0, i.Base, i.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	x, err := m.IncumbentFromSchedule(sch)
	if err != nil {
		t.Fatal(err)
	}
	// The vector must be usable as a MIP incumbent.
	sol, err := m.Solve(mip.Options{MaxNodes: 500, Incumbent: x})
	if err != nil {
		t.Fatal(err)
	}
	if sol.MIP.Status != mip.Optimal && sol.MIP.Status != mip.Feasible {
		t.Fatalf("status = %v", sol.MIP.Status)
	}
	// Wrong job set is rejected.
	other := &schedule.Schedule{Now: 0, Machine: 4,
		Entries: []schedule.Entry{{Job: jb(99, 0, 1, 10), Start: 0}}}
	if _, err := m.IncumbentFromSchedule(other); err == nil {
		t.Fatal("foreign schedule accepted")
	}
}

func TestSubmitAfterNowRestrictsSlots(t *testing.T) {
	i := inst(4, 0, 400, jb(1, 0, 2, 50), jb(2, 95, 2, 50))
	m, err := Build(i, 10)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := m.Solve(mip.Options{MaxNodes: 500})
	if err != nil {
		t.Fatal(err)
	}
	if sol.MIP.Status != mip.Optimal {
		t.Fatalf("status = %v", sol.MIP.Status)
	}
	// Job 2 must not start before its submission (95 -> slot 10 = 100).
	if s := sol.Grid.Find(2).Start; s < 100 {
		t.Fatalf("job 2 grid start %d before submission", s)
	}
	if s := sol.Compacted.Find(2).Start; s < 95 {
		t.Fatalf("job 2 compacted start %d before submission", s)
	}
}

func TestWriteLP(t *testing.T) {
	i := inst(2, 0, 100, jb(1, 0, 1, 20), jb(2, 0, 2, 30))
	m, err := Build(i, 10)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := m.WriteLP(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Minimize", "Subject To", "assign_1", "assign_2", "cap_0", "Binaries", "End"} {
		if !strings.Contains(out, want) {
			t.Fatalf("LP output missing %q:\n%s", want, out)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	i := inst(4, 0, 100, jb(1, 0, 2, 50))
	if _, err := Build(i, 0); err == nil {
		t.Fatal("zero scale accepted")
	}
	bad := inst(4, 0, 100, jb(1, 0, 2, 50))
	bad.Jobs = nil
	if _, err := Build(bad, 10); err == nil {
		t.Fatal("invalid instance accepted")
	}
}

// Property (the paper's central premise): at scale 1 the ILP optimum is
// at least as good as the best basic policy on the ARTwW objective, and
// the compacted schedule is always feasible.
func TestILPBeatsPoliciesAtScaleOne(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		mSize := r.Intn(4) + 2
		base := machine.New(mSize, 0)
		if r.Intn(2) == 0 {
			base.Reserve(0, int64(r.Intn(40)+1), r.Intn(mSize)+1)
		}
		n := r.Intn(3) + 2
		jobs := make([]*job.Job, n)
		for k := 0; k < n; k++ {
			jobs[k] = jb(k+1, 0, r.Intn(mSize)+1, int64(r.Intn(40)+5))
		}
		// Horizon: worst policy makespan.
		var horizon int64
		best := math.Inf(1)
		for _, p := range policy.Standard() {
			s, err := policy.Build(p, 0, base, jobs)
			if err != nil {
				return false
			}
			if mk := s.Makespan(); mk > horizon {
				horizon = mk
			}
			if o := ObjectiveOfSchedule(s); o < best {
				best = o
			}
		}
		i := &Instance{Now: 0, Machine: mSize, Base: base, Jobs: jobs, Horizon: horizon}
		m, err := Build(i, 1)
		if err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}
		sol, err := m.Solve(mip.Options{MaxNodes: 3000})
		if err != nil || sol.MIP.Status != mip.Optimal {
			t.Logf("seed %d: solve: %v %v", seed, sol, err)
			return false
		}
		if sol.Compacted.Validate(base) != nil {
			return false
		}
		// Optimal <= best policy (+tolerance).
		if sol.MIP.Objective > best+1e-6 {
			t.Logf("seed %d: ILP %g worse than policy %g", seed, sol.MIP.Objective, best)
			return false
		}
		// Compaction never hurts the grid objective.
		if ObjectiveOfSchedule(sol.Compacted) > ObjectiveOfSchedule(sol.Grid)+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildAndSolve8Jobs(b *testing.B) {
	r := stats.NewRand(77)
	base := machine.New(64, 0)
	jobs := make([]*job.Job, 8)
	for k := range jobs {
		jobs[k] = jb(k+1, 0, r.Intn(32)+1, int64(r.Intn(3000)+300))
	}
	var horizon int64
	for _, p := range policy.Standard() {
		s, _ := policy.Build(p, 0, base, jobs)
		if mk := s.Makespan(); mk > horizon {
			horizon = mk
		}
	}
	i := &Instance{Now: 0, Machine: 64, Base: base, Jobs: jobs, Horizon: horizon}
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		m, err := Build(i, 60)
		if err != nil {
			b.Fatal(err)
		}
		sol, err := m.Solve(mip.Options{MaxNodes: 200})
		if err != nil {
			b.Fatal(err)
		}
		if sol.MIP.Status != mip.Optimal && sol.MIP.Status != mip.Feasible {
			b.Fatalf("status %v", sol.MIP.Status)
		}
	}
}

// Round trip: the LP file WriteLP emits must parse back (lp.ReadLP) into
// a model whose MIP optimum matches solving the model directly — a full
// cross-check of the exporter.
func TestWriteLPRoundTripSolve(t *testing.T) {
	base := machine.New(4, 0)
	base.Reserve(0, 45, 2)
	i := &Instance{Now: 0, Machine: 4, Base: base, Horizon: 400,
		Jobs: []*job.Job{jb(1, 0, 2, 90), jb(2, 0, 4, 60), jb(3, 0, 1, 120)}}
	m, err := Build(i, 15)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := m.Solve(mip.Options{MaxNodes: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if sol.MIP.Status != mip.Optimal {
		t.Fatalf("direct solve: %v", sol.MIP.Status)
	}

	var buf strings.Builder
	if err := m.WriteLP(&buf); err != nil {
		t.Fatal(err)
	}
	p, ints, err := lp.ReadLP(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ints) != m.NumVariables() {
		t.Fatalf("parsed %d integer columns, want %d", len(ints), m.NumVariables())
	}
	res, err := mip.Solve(p, ints, mip.Options{MaxNodes: 50000, IntegralObjective: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != mip.Optimal {
		t.Fatalf("round-trip solve: %v", res.Status)
	}
	if math.Abs(res.Objective-sol.MIP.Objective) > 1e-6 {
		t.Fatalf("round-trip objective %g, direct %g", res.Objective, sol.MIP.Objective)
	}
}
