// Package policy implements the scheduling policies of the paper's CCS
// system — FCFS, SJF and LJF — as planning-based list schedulers, plus a
// few extension policies. A policy is an ordering of the waiting queue;
// Build places each job, in policy order, at the earliest time its width
// fits the free-capacity profile for its whole estimated duration. Because
// later (smaller or narrower) jobs may slip into earlier holes, "with this
// approach backfilling is done implicitly".
package policy

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// Policy orders the waiting queue for the list scheduler.
type Policy interface {
	Name() string
	// Less is a strict weak ordering over waiting jobs. Implementations
	// must fall back to the job ID so the order is total and
	// deterministic.
	Less(a, b *job.Job) bool
}

// byID breaks ties deterministically.
func byID(a, b *job.Job) bool { return a.ID < b.ID }

// FCFS is first come, first serve: by submission time.
type FCFS struct{}

func (FCFS) Name() string { return "FCFS" }
func (FCFS) Less(a, b *job.Job) bool {
	if a.Submit != b.Submit {
		return a.Submit < b.Submit
	}
	return byID(a, b)
}

// SJF is shortest job first: by estimated duration, ascending.
type SJF struct{}

func (SJF) Name() string { return "SJF" }
func (SJF) Less(a, b *job.Job) bool {
	if a.Estimate != b.Estimate {
		return a.Estimate < b.Estimate
	}
	return FCFS{}.Less(a, b)
}

// LJF is longest job first: by estimated duration, descending.
type LJF struct{}

func (LJF) Name() string { return "LJF" }
func (LJF) Less(a, b *job.Job) bool {
	if a.Estimate != b.Estimate {
		return a.Estimate > b.Estimate
	}
	return FCFS{}.Less(a, b)
}

// WidestFirst orders by width, descending — an extension policy useful
// for packing-heavy workloads.
type WidestFirst struct{}

func (WidestFirst) Name() string { return "WIDE" }
func (WidestFirst) Less(a, b *job.Job) bool {
	if a.Width != b.Width {
		return a.Width > b.Width
	}
	return FCFS{}.Less(a, b)
}

// NarrowestFirst orders by width, ascending.
type NarrowestFirst struct{}

func (NarrowestFirst) Name() string { return "NARROW" }
func (NarrowestFirst) Less(a, b *job.Job) bool {
	if a.Width != b.Width {
		return a.Width < b.Width
	}
	return FCFS{}.Less(a, b)
}

// LargestAreaFirst orders by estimated area (width × duration), descending.
type LargestAreaFirst struct{}

func (LargestAreaFirst) Name() string { return "LAF" }
func (LargestAreaFirst) Less(a, b *job.Job) bool {
	if a.Area() != b.Area() {
		return a.Area() > b.Area()
	}
	return FCFS{}.Less(a, b)
}

// SmallestAreaFirst orders by estimated area, ascending.
type SmallestAreaFirst struct{}

func (SmallestAreaFirst) Name() string { return "SAF" }
func (SmallestAreaFirst) Less(a, b *job.Job) bool {
	if a.Area() != b.Area() {
		return a.Area() < b.Area()
	}
	return FCFS{}.Less(a, b)
}

// Standard returns the three policies of the paper's CCS: FCFS, SJF, LJF.
func Standard() []Policy { return []Policy{FCFS{}, SJF{}, LJF{}} }

// Extended returns the standard policies plus the extension policies.
func Extended() []Policy {
	return append(Standard(),
		WidestFirst{}, NarrowestFirst{}, LargestAreaFirst{}, SmallestAreaFirst{})
}

// ByName resolves a policy name (as returned by Name) to a Policy.
func ByName(name string) (Policy, error) {
	for _, p := range Extended() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("policy: unknown policy %q", name)
}

// Build computes the full schedule for the waiting jobs under policy p:
// jobs are sorted in policy order and greedily placed at their earliest
// feasible start on top of base (the profile holding the running jobs).
// base is not modified. Jobs submitted after now (none, in a well-formed
// self-tuning step) are not started before their submission.
//
// It returns an error only if a job is wider than the machine.
func Build(p Policy, now int64, base *machine.Profile, waiting []*job.Job) (*schedule.Schedule, error) {
	return new(Builder).Build(p, now, base, waiting)
}

// Builder is Build with scratch state: it reuses one profile and one order
// slice across builds, so a build allocates only the returned Schedule
// and its Entries. A Builder is not safe for concurrent use.
type Builder struct {
	prof  machine.Profile
	order []*job.Job
}

// Build is the package-level Build on b's scratch state. Schedules it
// returned earlier are not affected.
func (b *Builder) Build(p Policy, now int64, base *machine.Profile, waiting []*job.Job) (*schedule.Schedule, error) {
	b.order = append(b.order[:0], waiting...)
	defer clear(b.order) // do not keep finished jobs reachable
	// Less is total (IDs break ties), so one call decides the order.
	slices.SortFunc(b.order, func(x, y *job.Job) int {
		switch {
		case x == y:
			return 0
		case p.Less(x, y):
			return -1
		}
		return 1
	})

	b.prof.CopyFrom(base)
	s := &schedule.Schedule{Policy: p.Name(), Now: now, Machine: base.Total(),
		Entries: make([]schedule.Entry, 0, len(b.order))}
	for i, j := range b.order {
		// Cooperative yield every 64 placements: a deep queue makes one
		// build run for multiple milliseconds of profile scans, which is
		// under the Go async-preemption threshold — on a small-GOMAXPROCS
		// serving host, a goroutine returning from blocking I/O (the WAL's
		// durability barrier) would otherwise wait out the whole slice
		// before it can reacquire a P.
		if i&63 == 63 {
			runtime.Gosched()
		}
		earliest := now
		if j.Submit > earliest {
			earliest = j.Submit
		}
		start, ok := b.prof.Place(earliest, j.Estimate, j.Width)
		if !ok {
			return nil, fmt.Errorf("policy: job %d (width %d) wider than machine (%d)",
				j.ID, j.Width, base.Total())
		}
		s.Entries = append(s.Entries, schedule.Entry{Job: j, Start: start})
	}
	return s, nil
}
