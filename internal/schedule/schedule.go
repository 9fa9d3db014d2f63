// Package schedule represents full schedules: a planned start time for
// every waiting job, as produced by the planning-based scheduler in every
// self-tuning step. It also implements the compaction pass of §3.2 of the
// paper (re-inserting jobs in a given start order as early as possible),
// which repairs the slack a time-scaled ILP solution leaves behind.
package schedule

import (
	"fmt"
	"sort"

	"repro/internal/job"
	"repro/internal/machine"
)

// Entry is one planned job: the job plus its planned start time.
type Entry struct {
	Job   *job.Job
	Start int64
}

// End returns the planned end time (start + estimated duration): planning
// is always done with estimates.
func (e Entry) End() int64 { return e.Start + e.Job.Estimate }

// ResponseTime returns the planned response time start + d_i - s_i.
func (e Entry) ResponseTime() int64 { return e.End() - e.Job.Submit }

// WaitTime returns the planned waiting time start - s_i.
func (e Entry) WaitTime() int64 { return e.Start - e.Job.Submit }

// Slowdown returns the planned (bounded-from-below-by-1) slowdown
// (wait + d_i) / d_i.
func (e Entry) Slowdown() float64 {
	return float64(e.ResponseTime()) / float64(e.Job.Estimate)
}

// Schedule is a full schedule for a fixed set of waiting jobs, planned at
// time Now on a machine with Machine processors whose residual capacity
// (running jobs) is captured separately as a machine.Profile.
type Schedule struct {
	// Policy names the producer ("FCFS", "SJF", "LJF", "ILP", ...).
	Policy string
	// Now is the planning instant of the self-tuning step.
	Now int64
	// Machine is the total processor count M.
	Machine int
	// Entries, one per waiting job, in no particular order unless
	// SortByStart has been called.
	Entries []Entry
}

// Clone returns a copy sharing the job pointers but not the entry slice.
func (s *Schedule) Clone() *Schedule {
	cp := *s
	cp.Entries = append([]Entry(nil), s.Entries...)
	return &cp
}

// SortByStart orders entries by (Start, Job.ID); the secondary key makes
// the order deterministic so compaction is reproducible.
func (s *Schedule) SortByStart() {
	sort.Slice(s.Entries, func(a, b int) bool {
		if s.Entries[a].Start != s.Entries[b].Start {
			return s.Entries[a].Start < s.Entries[b].Start
		}
		return s.Entries[a].Job.ID < s.Entries[b].Job.ID
	})
}

// Makespan returns the latest planned end time, or Now for an empty
// schedule.
func (s *Schedule) Makespan() int64 {
	m := s.Now
	for _, e := range s.Entries {
		if e.End() > m {
			m = e.End()
		}
	}
	return m
}

// Find returns the entry for the given job ID, or nil.
func (s *Schedule) Find(id int) *Entry {
	for i := range s.Entries {
		if s.Entries[i].Job.ID == id {
			return &s.Entries[i]
		}
	}
	return nil
}

// Validate checks that the schedule is feasible on top of base (the
// machine profile holding only the running jobs): every entry starts at or
// after both Now and its submission time, and capacities are respected.
// base is not modified.
func (s *Schedule) Validate(base *machine.Profile) error {
	p := base.Clone()
	if p.Total() != s.Machine {
		return fmt.Errorf("schedule: machine size %d does not match profile %d", s.Machine, p.Total())
	}
	for _, e := range s.Entries {
		if e.Start < s.Now {
			return fmt.Errorf("schedule: job %d starts at %d before now %d", e.Job.ID, e.Start, s.Now)
		}
		if e.Start < e.Job.Submit {
			return fmt.Errorf("schedule: job %d starts at %d before submission %d", e.Job.ID, e.Start, e.Job.Submit)
		}
		if err := p.Reserve(e.Start, e.End(), e.Job.Width); err != nil {
			return fmt.Errorf("schedule: job %d infeasible: %v", e.Job.ID, err)
		}
	}
	return nil
}

// Reserve books every entry of the schedule into the profile. It is the
// counterpart of Validate that keeps the reservations.
func (s *Schedule) Reserve(p *machine.Profile) error {
	for _, e := range s.Entries {
		if err := p.Reserve(e.Start, e.End(), e.Job.Width); err != nil {
			return fmt.Errorf("schedule: job %d: %v", e.Job.ID, err)
		}
	}
	return nil
}

// Compact re-places the schedule's jobs in the given start order (the
// order of s.Entries after SortByStart) as early as possible on top of
// base. This is the paper's repair for time-scaling: "each job is inserted
// in the schedule according to the starting order of the schedule computed
// by CPLEX. Each job is placed as soon as possible and unused time slots,
// due to time-scaling, do no longer occur."
//
// base is not modified. The result carries the same Policy name.
func (s *Schedule) Compact(base *machine.Profile) (*Schedule, error) {
	ordered := s.Clone()
	ordered.SortByStart()
	p := base.Clone()
	out := &Schedule{Policy: s.Policy, Now: s.Now, Machine: s.Machine,
		Entries: make([]Entry, 0, len(s.Entries))}
	for _, e := range ordered.Entries {
		earliest := s.Now
		if e.Job.Submit > earliest {
			earliest = e.Job.Submit
		}
		start, ok := p.Place(earliest, e.Job.Estimate, e.Job.Width)
		if !ok {
			return nil, fmt.Errorf("schedule: job %d wider than machine", e.Job.ID)
		}
		out.Entries = append(out.Entries, Entry{Job: e.Job, Start: start})
	}
	return out, nil
}

// String renders a small human-readable listing.
func (s *Schedule) String() string {
	out := fmt.Sprintf("schedule %q (now=%d, %d jobs, makespan=%d)\n",
		s.Policy, s.Now, len(s.Entries), s.Makespan())
	c := s.Clone()
	c.SortByStart()
	for _, e := range c.Entries {
		out += fmt.Sprintf("  job %4d: start=%8d end=%8d width=%3d\n",
			e.Job.ID, e.Start, e.End(), e.Job.Width)
	}
	return out
}
