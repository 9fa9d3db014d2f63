package policy

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/schedule"
	"repro/internal/stats"
)

func j(id int, submit int64, width int, est int64) *job.Job {
	return &job.Job{ID: id, Submit: submit, Width: width, Estimate: est, Runtime: est}
}

func TestOrderings(t *testing.T) {
	short := j(1, 10, 2, 100)
	long := j(2, 5, 2, 1000)
	wide := j(3, 20, 8, 100)

	if !(FCFS{}).Less(long, short) { // earlier submit first
		t.Fatal("FCFS should favor earlier submission")
	}
	if !(SJF{}).Less(short, long) {
		t.Fatal("SJF should favor shorter jobs")
	}
	if !(LJF{}).Less(long, short) {
		t.Fatal("LJF should favor longer jobs")
	}
	if !(WidestFirst{}).Less(wide, short) {
		t.Fatal("WIDE should favor wider jobs")
	}
	if !(NarrowestFirst{}).Less(short, wide) {
		t.Fatal("NARROW should favor narrower jobs")
	}
	if !(LargestAreaFirst{}).Less(long, wide) { // 2000 vs 800
		t.Fatal("LAF should favor larger areas")
	}
	if !(SmallestAreaFirst{}).Less(short, long) {
		t.Fatal("SAF should favor smaller areas")
	}
}

func TestTieBreakByID(t *testing.T) {
	a := j(1, 10, 2, 100)
	b := j(2, 10, 2, 100)
	for _, p := range Extended() {
		if !p.Less(a, b) || p.Less(b, a) {
			t.Fatalf("%s tie-break by ID broken", p.Name())
		}
	}
}

func TestByName(t *testing.T) {
	for _, p := range Extended() {
		got, err := ByName(p.Name())
		if err != nil || got.Name() != p.Name() {
			t.Fatalf("ByName(%q) failed: %v", p.Name(), err)
		}
	}
	if _, err := ByName("BOGUS"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestStandardIsPaperSet(t *testing.T) {
	std := Standard()
	if len(std) != 3 || std[0].Name() != "FCFS" || std[1].Name() != "SJF" || std[2].Name() != "LJF" {
		t.Fatalf("Standard() = %v", std)
	}
}

func TestBuildFCFSSequence(t *testing.T) {
	// 4-proc machine, three 4-wide jobs: strict sequence in submit order.
	base := machine.New(4, 0)
	waiting := []*job.Job{j(2, 10, 4, 100), j(1, 5, 4, 50), j(3, 20, 4, 25)}
	s, err := Build(FCFS{}, 30, base, waiting)
	if err != nil {
		t.Fatal(err)
	}
	if s.Find(1).Start != 30 || s.Find(2).Start != 80 || s.Find(3).Start != 180 {
		t.Fatalf("FCFS starts wrong: %v", s)
	}
	if err := s.Validate(base); err != nil {
		t.Fatal(err)
	}
}

func TestBuildImplicitBackfilling(t *testing.T) {
	// M=4. Running job holds 2 procs until t=100. Waiting: a wide job
	// (w=4) and a narrow short job (w=2, d=50). FCFS places the wide job
	// first at t=100; the narrow job fits *before* it (implicit
	// backfilling) at t=0.
	base := machine.New(4, 0)
	if err := base.Reserve(0, 100, 2); err != nil {
		t.Fatal(err)
	}
	wide := j(1, 0, 4, 100)
	narrow := j(2, 1, 2, 50)
	s, err := Build(FCFS{}, 0, base, []*job.Job{wide, narrow})
	if err != nil {
		t.Fatal(err)
	}
	if s.Find(1).Start != 100 {
		t.Fatalf("wide job start %d, want 100", s.Find(1).Start)
	}
	if s.Find(2).Start != 1 {
		t.Fatalf("narrow job start %d, want 1 (backfilled)", s.Find(2).Start)
	}
}

func TestBuildRespectsSubmitTime(t *testing.T) {
	base := machine.New(4, 0)
	future := j(1, 500, 1, 10)
	s, err := Build(FCFS{}, 0, base, []*job.Job{future})
	if err != nil {
		t.Fatal(err)
	}
	if s.Find(1).Start != 500 {
		t.Fatalf("start %d, want 500 (not before submission)", s.Find(1).Start)
	}
}

func TestBuildTooWide(t *testing.T) {
	base := machine.New(4, 0)
	if _, err := Build(FCFS{}, 0, base, []*job.Job{j(1, 0, 5, 10)}); err == nil {
		t.Fatal("over-wide job scheduled")
	}
}

func TestBuildDoesNotMutateInputs(t *testing.T) {
	base := machine.New(4, 0)
	waiting := []*job.Job{j(2, 10, 1, 10), j(1, 0, 1, 10)}
	if _, err := Build(SJF{}, 10, base, waiting); err != nil {
		t.Fatal(err)
	}
	if waiting[0].ID != 2 || waiting[1].ID != 1 {
		t.Fatal("Build reordered the caller's slice")
	}
	if base.FreeAt(10) != 4 {
		t.Fatal("Build mutated the base profile")
	}
}

func TestSJFvsLJFCharacter(t *testing.T) {
	// On a saturated machine SJF must yield a lower average response time
	// than LJF (classic result the self-tuner exploits).
	base := machine.New(2, 0)
	waiting := []*job.Job{
		j(1, 0, 2, 1000), j(2, 0, 2, 10), j(3, 0, 2, 10), j(4, 0, 2, 10),
	}
	sjf, err := Build(SJF{}, 0, base, waiting)
	if err != nil {
		t.Fatal(err)
	}
	ljf, err := Build(LJF{}, 0, base, waiting)
	if err != nil {
		t.Fatal(err)
	}
	art := metrics.ART{}
	if !(art.Eval(sjf) < art.Eval(ljf)) {
		t.Fatalf("SJF ART %v not better than LJF ART %v", art.Eval(sjf), art.Eval(ljf))
	}
	// Both schedule the same job set, so the makespan-relevant total area
	// is equal and both must be feasible.
	if err := sjf.Validate(base); err != nil {
		t.Fatal(err)
	}
	if err := ljf.Validate(base); err != nil {
		t.Fatal(err)
	}
}

// Property: every policy produces a feasible schedule containing exactly
// the waiting jobs, with no job before its submit time or now.
func TestBuildFeasibilityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		base := machine.New(16, 0)
		for k := 0; k < r.Intn(3); k++ {
			base.Reserve(0, int64(r.Intn(400)+1), r.Intn(8)+1)
		}
		now := int64(r.Intn(100))
		var waiting []*job.Job
		for k := 0; k < r.Intn(12); k++ {
			waiting = append(waiting, j(k+1, int64(r.Intn(int(now)+1)),
				r.Intn(16)+1, int64(r.Intn(600)+1)))
		}
		for _, p := range Extended() {
			s, err := Build(p, now, base, waiting)
			if err != nil {
				return false
			}
			if len(s.Entries) != len(waiting) {
				return false
			}
			if s.Validate(base) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// refBuild is the list scheduler Builder replaced: a two-Less sort of a
// copied queue, then EarliestFit and Reserve on a fresh clone of base.
func refBuild(t *testing.T, p Policy, now int64, base *machine.Profile, waiting []*job.Job) []schedule.Entry {
	ordered := slices.Clone(waiting)
	slices.SortFunc(ordered, func(a, b *job.Job) int {
		switch {
		case p.Less(a, b):
			return -1
		case p.Less(b, a):
			return 1
		}
		return 0
	})
	prof := base.Clone()
	var out []schedule.Entry
	for _, j := range ordered {
		start, ok := prof.EarliestFit(max(now, j.Submit), j.Estimate, j.Width)
		if !ok {
			t.Fatalf("reference: job %d does not fit", j.ID)
		}
		if err := prof.Reserve(start, start+j.Estimate, j.Width); err != nil {
			t.Fatalf("reference: job %d: %v", j.ID, err)
		}
		out = append(out, schedule.Entry{Job: j, Start: start})
	}
	return out
}

// One Builder, reused across policies and across bases and queues of
// different lengths, builds what a fresh Build and the reference list
// scheduler build, and the schedules it returned earlier stay as they were.
func TestBuilderReuseMatchesBuild(t *testing.T) {
	r := stats.NewRand(5)
	var b Builder
	type kept struct {
		s    *schedule.Schedule
		want []schedule.Entry
	}
	var all []kept
	for round := 0; round < 40; round++ {
		base := machine.New(32, 0)
		for k := 0; k < r.Intn(12); k++ {
			base.Reserve(0, int64(r.Intn(900)+1), r.Intn(6)+1)
		}
		now := int64(r.Intn(100))
		var waiting []*job.Job
		for k := 0; k < r.Intn(40); k++ {
			waiting = append(waiting, j(k+1, int64(r.Intn(150)), r.Intn(32)+1, int64(r.Intn(600)+1)))
		}
		for _, p := range Extended() {
			want := refBuild(t, p, now, base, waiting)
			got, err := b.Build(p, now, base, waiting)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Build(p, now, base, waiting)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Entries, want) || !slices.Equal(fresh.Entries, want) {
				t.Fatalf("round %d %s: builder %v, fresh %v, reference %v",
					round, p.Name(), got.Entries, fresh.Entries, want)
			}
			all = append(all, kept{got, want})
		}
	}
	for i, k := range all {
		if !slices.Equal(k.s.Entries, k.want) {
			t.Fatalf("schedule %d changed by later builds: %v, was %v", i, k.s.Entries, k.want)
		}
	}
}

// A reused Builder allocates only the Schedule and its Entries.
func TestBuilderAllocs(t *testing.T) {
	r := stats.NewRand(99)
	base := machine.New(430, 0)
	base.Reserve(0, 7200, 200)
	var waiting []*job.Job
	for k := 0; k < 25; k++ {
		waiting = append(waiting, j(k+1, int64(r.Intn(3600)), r.Intn(64)+1, int64(r.Intn(14400)+60)))
	}
	var b Builder
	if n := testing.AllocsPerRun(100, func() {
		if _, err := b.Build(SJF{}, 3600, base, waiting); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Fatalf("Builder.Build allocates %.1f objects, want 2 (Schedule and Entries)", n)
	}
}

// Property: Build is greedy-tight for the *first* job in policy order: it
// starts at the earliest time the base profile admits it.
func TestFirstJobTightProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		base := machine.New(8, 0)
		for k := 0; k < r.Intn(3); k++ {
			base.Reserve(0, int64(r.Intn(200)+1), r.Intn(4)+1)
		}
		jb := j(1, 0, r.Intn(8)+1, int64(r.Intn(300)+1))
		s, err := Build(FCFS{}, 0, base, []*job.Job{jb})
		if err != nil {
			return false
		}
		want, _ := base.EarliestFit(0, jb.Estimate, jb.Width)
		return s.Find(1).Start == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild25Jobs(b *testing.B) {
	r := stats.NewRand(99)
	base := machine.New(430, 0)
	var waiting []*job.Job
	for k := 0; k < 25; k++ {
		waiting = append(waiting, j(k+1, int64(r.Intn(3600)),
			r.Intn(64)+1, int64(r.Intn(14400)+60)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(FCFS{}, 3600, base, waiting); err != nil {
			b.Fatal(err)
		}
	}
}
