package schedule

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/stats"
)

func j(id int, submit int64, width int, est int64) *job.Job {
	return &job.Job{ID: id, Submit: submit, Width: width, Estimate: est, Runtime: est}
}

func TestEntryDerivedTimes(t *testing.T) {
	e := Entry{Job: j(1, 100, 4, 50), Start: 130}
	if e.End() != 180 {
		t.Fatalf("End = %d, want 180", e.End())
	}
	if e.WaitTime() != 30 {
		t.Fatalf("WaitTime = %d, want 30", e.WaitTime())
	}
	if e.ResponseTime() != 80 {
		t.Fatalf("ResponseTime = %d, want 80", e.ResponseTime())
	}
	if e.Slowdown() != 80.0/50.0 {
		t.Fatalf("Slowdown = %v, want 1.6", e.Slowdown())
	}
}

func TestMakespanAndFind(t *testing.T) {
	s := &Schedule{Now: 10, Machine: 8, Entries: []Entry{
		{Job: j(1, 0, 2, 100), Start: 10},
		{Job: j(2, 0, 2, 50), Start: 200},
	}}
	if s.Makespan() != 250 {
		t.Fatalf("Makespan = %d, want 250", s.Makespan())
	}
	if e := s.Find(2); e == nil || e.Start != 200 {
		t.Fatalf("Find(2) = %+v", e)
	}
	if s.Find(99) != nil {
		t.Fatal("Find(99) found a ghost")
	}
	empty := &Schedule{Now: 42}
	if empty.Makespan() != 42 {
		t.Fatalf("empty Makespan = %d, want 42", empty.Makespan())
	}
}

func TestValidate(t *testing.T) {
	base := machine.New(4, 0)
	good := &Schedule{Now: 0, Machine: 4, Entries: []Entry{
		{Job: j(1, 0, 4, 10), Start: 0},
		{Job: j(2, 0, 4, 10), Start: 10},
	}}
	if err := good.Validate(base); err != nil {
		t.Fatal(err)
	}

	overlap := &Schedule{Now: 0, Machine: 4, Entries: []Entry{
		{Job: j(1, 0, 4, 10), Start: 0},
		{Job: j(2, 0, 1, 10), Start: 5},
	}}
	if err := overlap.Validate(base); err == nil {
		t.Fatal("overlapping schedule accepted")
	}

	early := &Schedule{Now: 100, Machine: 4, Entries: []Entry{{Job: j(1, 0, 1, 10), Start: 50}}}
	base2 := machine.New(4, 50)
	if err := early.Validate(base2); err == nil || !strings.Contains(err.Error(), "before now") {
		t.Fatalf("start-before-now accepted: %v", err)
	}

	preSubmit := &Schedule{Now: 0, Machine: 4, Entries: []Entry{{Job: j(1, 30, 1, 10), Start: 20}}}
	if err := preSubmit.Validate(base); err == nil || !strings.Contains(err.Error(), "before submission") {
		t.Fatalf("start-before-submit accepted: %v", err)
	}

	mismatch := &Schedule{Now: 0, Machine: 8}
	if err := mismatch.Validate(base); err == nil {
		t.Fatal("machine-size mismatch accepted")
	}
}

func TestSortByStartDeterministic(t *testing.T) {
	s := &Schedule{Entries: []Entry{
		{Job: j(3, 0, 1, 5), Start: 10},
		{Job: j(1, 0, 1, 5), Start: 10},
		{Job: j(2, 0, 1, 5), Start: 5},
	}}
	s.SortByStart()
	ids := []int{s.Entries[0].Job.ID, s.Entries[1].Job.ID, s.Entries[2].Job.ID}
	if ids[0] != 2 || ids[1] != 1 || ids[2] != 3 {
		t.Fatalf("sort order %v, want [2 1 3]", ids)
	}
}

func TestCompactRemovesSlack(t *testing.T) {
	// A schedule with artificial gaps (as a coarse time grid would leave):
	// compaction must pull every job forward while keeping the order.
	base := machine.New(4, 0)
	s := &Schedule{Now: 0, Machine: 4, Entries: []Entry{
		{Job: j(1, 0, 4, 10), Start: 60},  // could start at 0
		{Job: j(2, 0, 4, 10), Start: 120}, // could start right after job 1
	}}
	c, err := s.Compact(base)
	if err != nil {
		t.Fatal(err)
	}
	if e := c.Find(1); e.Start != 0 {
		t.Fatalf("job 1 start %d, want 0", e.Start)
	}
	if e := c.Find(2); e.Start != 10 {
		t.Fatalf("job 2 start %d, want 10", e.Start)
	}
	if err := c.Validate(base); err != nil {
		t.Fatal(err)
	}
}

func TestCompactRespectsRunningJobs(t *testing.T) {
	base := machine.New(4, 0)
	if err := base.Reserve(0, 100, 3); err != nil { // running job
		t.Fatal(err)
	}
	s := &Schedule{Now: 0, Machine: 4, Entries: []Entry{
		{Job: j(1, 0, 2, 10), Start: 300},
	}}
	c, err := s.Compact(base)
	if err != nil {
		t.Fatal(err)
	}
	if e := c.Find(1); e.Start != 100 {
		t.Fatalf("job 1 start %d, want 100 (after running job)", e.Start)
	}
}

func TestCompactErrorOnTooWide(t *testing.T) {
	base := machine.New(4, 0)
	s := &Schedule{Now: 0, Machine: 4, Entries: []Entry{{Job: j(1, 0, 8, 10), Start: 0}}}
	if _, err := s.Compact(base); err == nil {
		t.Fatal("over-wide job compacted")
	}
}

func TestReserveBooksEntries(t *testing.T) {
	base := machine.New(4, 0)
	s := &Schedule{Now: 0, Machine: 4, Entries: []Entry{{Job: j(1, 0, 3, 10), Start: 0}}}
	if err := s.Reserve(base); err != nil {
		t.Fatal(err)
	}
	if base.FreeAt(5) != 1 {
		t.Fatalf("FreeAt(5) = %d after Reserve, want 1", base.FreeAt(5))
	}
}

func TestString(t *testing.T) {
	s := &Schedule{Policy: "FCFS", Now: 0, Machine: 4,
		Entries: []Entry{{Job: j(7, 0, 2, 10), Start: 3}}}
	out := s.String()
	if !strings.Contains(out, "FCFS") || !strings.Contains(out, "job    7") {
		t.Fatalf("bad rendering:\n%s", out)
	}
}

// Property: compaction never delays any job relative to a feasible input
// schedule, and the result is always feasible.
func TestCompactNeverDelays(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		base := machine.New(16, 0)
		// Random running jobs.
		for k := 0; k < r.Intn(4); k++ {
			w := r.Intn(8) + 1
			base.Reserve(0, int64(r.Intn(300)+1), w)
		}
		// Random feasible schedule built by greedy placement with random
		// extra delay (simulating grid slack).
		s := &Schedule{Now: 0, Machine: 16}
		p := base.Clone()
		for k := 0; k < r.Intn(10)+1; k++ {
			jb := j(k+1, int64(r.Intn(50)), r.Intn(8)+1, int64(r.Intn(400)+1))
			earliest := jb.Submit + int64(r.Intn(500)) // artificial slack
			start, ok := p.EarliestFit(earliest, jb.Estimate, jb.Width)
			if !ok {
				return false
			}
			p.Reserve(start, start+jb.Estimate, jb.Width)
			s.Entries = append(s.Entries, Entry{Job: jb, Start: start})
		}
		c, err := s.Compact(base)
		if err != nil {
			return false
		}
		if c.Validate(base) != nil {
			return false
		}
		for _, e := range s.Entries {
			if c.Find(e.Job.ID).Start > e.Start {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
