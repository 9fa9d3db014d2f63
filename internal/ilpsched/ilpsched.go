// Package ilpsched builds and solves the paper's time-indexed integer
// program for one self-tuning step (the quasi off-line scheduling problem),
// following van den Akker et al. [17] as §3.1 prescribes:
//
//	variables    x_it = 1 iff job i starts at time t            (Eq. 1)
//	minimize     sum_{i,t} x_it (t - s_i + d_i) w_i             (Eq. 2, ARTwW)
//	subject to   sum_t x_it = 1                   for every i   (Eq. 3)
//	             sum_i sum_{t-d_i < j <= t} x_ij w_i <= M_t     (Eq. 4)
//	             x_it binary                                    (Eq. 5)
//
// where M_t is the machine capacity reduced by the machine history of the
// already-running jobs. Because a one-second grid needs too much memory,
// the model is built on a time-scaled grid (§3.2, Eq. 6) and the solved
// start order is compacted ("each job is placed as soon as possible")
// before it is compared against the basic policies.
package ilpsched

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"repro/internal/job"
	"repro/internal/lp"
	"repro/internal/machine"
	"repro/internal/mip"
	"repro/internal/schedule"
)

// Sentinel errors of the build/solve pipeline, matched with errors.Is.
// The typed errors below carry the diagnostic detail.
var (
	// ErrModelTooLarge: the pre-build size guard rejected the grid.
	ErrModelTooLarge = errors.New("ilpsched: model exceeds the size guard")
	// ErrHorizonTooTight: a job cannot complete before the horizon (the
	// instance is infeasible on any grid of this horizon).
	ErrHorizonTooTight = errors.New("ilpsched: horizon too tight")
	// ErrNoSchedule: branch and bound finished without a feasible
	// schedule (covers both proven infeasibility and exhausted limits).
	ErrNoSchedule = errors.New("ilpsched: no schedule found")
	// ErrInfeasible: the grid instance is proven infeasible (a strict
	// subset of ErrNoSchedule).
	ErrInfeasible = errors.New("ilpsched: grid instance infeasible")
)

// ModelTooLargeError reports the estimated model size that tripped the
// guard. errors.Is(err, ErrModelTooLarge) matches it.
type ModelTooLargeError struct {
	Scale         int64
	Variables     int // estimated binary columns
	MatrixEntries int // estimated structural nonzeros
	MaxVariables  int // the limit that tripped (0 = not this one)
	MaxEntries    int
}

func (e *ModelTooLargeError) Error() string {
	return fmt.Sprintf("ilpsched: model too large at scale %d: ~%d variables, ~%d matrix entries (limits %d vars, %d entries)",
		e.Scale, e.Variables, e.MatrixEntries, e.MaxVariables, e.MaxEntries)
}

// Is makes errors.Is(err, ErrModelTooLarge) match.
func (e *ModelTooLargeError) Is(target error) bool { return target == ErrModelTooLarge }

// NoScheduleError reports a branch-and-bound run that ended without a
// feasible schedule. errors.Is matches ErrNoSchedule always and
// ErrInfeasible when the status is a proven infeasibility. Result carries
// the full solver telemetry (nil for injected faults in tests).
type NoScheduleError struct {
	Status mip.Status
	Result *mip.Result
}

func (e *NoScheduleError) Error() string {
	if e.Result != nil && e.Result.DeadlineHit {
		return fmt.Sprintf("ilpsched: no schedule found (%v, deadline hit)", e.Status)
	}
	return fmt.Sprintf("ilpsched: no schedule found (%v)", e.Status)
}

// Is makes errors.Is match ErrNoSchedule (always) and ErrInfeasible
// (proven infeasibility only).
func (e *NoScheduleError) Is(target error) bool {
	return target == ErrNoSchedule || (target == ErrInfeasible && e.Status == mip.Infeasible)
}

// DeadlineHit reports whether the run stopped on its time budget.
func (e *NoScheduleError) DeadlineHit() bool {
	return e.Result != nil && e.Result.DeadlineHit
}

// Instance is one quasi off-line scheduling problem: the waiting jobs of a
// self-tuning step plus the machine history at that instant.
type Instance struct {
	// Now is the step instant.
	Now int64
	// Machine is the total processor count M.
	Machine int
	// Base is the free-capacity profile of the running jobs.
	Base *machine.Profile
	// Jobs are the waiting jobs, each with Submit <= Now allowed to start
	// from Now on (later submitters from Now or their submission).
	Jobs []*job.Job
	// Horizon is the maximum possible end of the schedule, "usually ...
	// the maximum makespan of the three [policy] schedules" (absolute
	// time). Jobs must fit entirely before the (slack-extended) horizon.
	Horizon int64
}

// Validate checks the instance.
func (inst *Instance) Validate() error {
	if inst.Machine < 1 {
		return fmt.Errorf("ilpsched: machine size %d", inst.Machine)
	}
	if inst.Base == nil {
		return fmt.Errorf("ilpsched: nil base profile")
	}
	if inst.Base.Total() != inst.Machine {
		return fmt.Errorf("ilpsched: profile machine %d != %d", inst.Base.Total(), inst.Machine)
	}
	if len(inst.Jobs) == 0 {
		return fmt.Errorf("ilpsched: no jobs")
	}
	if inst.Horizon <= inst.Now {
		return fmt.Errorf("ilpsched: horizon %d not after now %d", inst.Horizon, inst.Now)
	}
	for _, j := range inst.Jobs {
		if j.Width > inst.Machine {
			return fmt.Errorf("ilpsched: %v wider than machine", j)
		}
		if inst.Now+j.Estimate > inst.Horizon && j.Submit <= inst.Now {
			return fmt.Errorf("%w: job %d cannot finish before %d", ErrHorizonTooTight, j.ID, inst.Horizon)
		}
	}
	return nil
}

// AccumulatedRuntime is the Eq. 6 input: the summed estimated durations.
func (inst *Instance) AccumulatedRuntime() int64 {
	return job.AccumulatedRuntime(inst.Jobs)
}

// MaxMakespan is the Eq. 6 input: horizon minus now.
func (inst *Instance) MaxMakespan() int64 { return inst.Horizon - inst.Now }

// Scaling is the paper's Eq. 6 memory model for choosing a time scale.
type Scaling struct {
	// BytesPerEntry is x, the memory per matrix entry; "good values for x
	// are 0.1 kB" (102.4 bytes).
	BytesPerEntry float64
	// MemoryBytes is the memory available for the matrix. The paper uses
	// an 8 GB machine and keeps the problem "about four times smaller
	// than the total memory available", i.e. 2 GiB.
	MemoryBytes float64
	// RoundTo rounds the scale up to this granularity ("rounded up to
	// the next 60 seconds").
	RoundTo int64
	// SlotCap additionally bounds the number of grid slots (0 = no cap).
	// The paper's Eq. 6 models the 2004 machine's memory; the analogous
	// budget for this solver is the simplex basis size, which grows with
	// the slot count.
	SlotCap int
}

// DefaultScaling returns the paper's configuration.
func DefaultScaling() Scaling {
	return Scaling{
		BytesPerEntry: 102.4,
		MemoryBytes:   8 * float64(1<<30) / 4,
		RoundTo:       60,
		SlotCap:       360,
	}
}

// TimeScale computes Eq. 6 for the instance:
//
//	time-scale = sqrt(max-makespan * acc-runtime * x / memory)
//
// rounded up to the RoundTo granularity with a minimum of one second.
// (The paper's printed formula lost the square root its own derivation
// implies — the matrix size scales with 1/scale²; see DESIGN.md.)
func (s Scaling) TimeScale(inst *Instance) int64 {
	raw := math.Sqrt(float64(inst.MaxMakespan()) * float64(inst.AccumulatedRuntime()) *
		s.BytesPerEntry / s.MemoryBytes)
	if s.SlotCap > 0 {
		if bySlots := float64(inst.MaxMakespan()) / float64(s.SlotCap); bySlots > raw {
			raw = bySlots
		}
	}
	scale := int64(math.Ceil(raw))
	if s.RoundTo > 1 {
		if rem := scale % s.RoundTo; rem != 0 || scale == 0 {
			scale += s.RoundTo - rem
		}
	}
	if scale < 1 {
		scale = 1
	}
	return scale
}

// Model is the scaled time-indexed integer program of an instance. A
// model built by Build carries every waiting job; a model built by
// BuildPresolved may carry only a subset (the presolve pass pins jobs
// whose start window collapses to a single slot and removes them from
// the program entirely — see presolve.go).
type Model struct {
	Inst  *Instance
	Scale int64 // seconds per grid slot
	Slots int   // number of start slots

	// jobs are the modeled jobs (== Inst.Jobs unless presolved); all
	// per-job arrays below are indexed by position in this slice.
	jobs []*job.Job
	// fixed are the presolve-pinned jobs with their grid start times;
	// offset is their Eq. 2 objective contribution, which the MIP
	// objective of the reduced program no longer sees.
	fixed  []schedule.Entry
	offset float64
	// groups are the presolve dominance groups (modeled-job indices in
	// canonical order); IncumbentFromSchedule reorders seed schedules
	// within each group so they respect the symmetry-trimmed windows.
	groups [][]int

	prob    *lp.Problem
	intCols []int
	// varOf[i] maps job index i's slot offset to its column:
	// column = varOf[i] + (slot - minSlot[i]).
	varOf    []int
	minSlot  []int
	maxSlot  []int
	slotDur  []int // ceil-scaled duration per job
	capacity []int // per-slot capacity M_t
	capRow   []int // row index per slot
}

// horizonSlack is the extra grid room granted beyond the scaled horizon so
// that ceil-scaled durations cannot make the policy-feasible instance
// grid-infeasible (each job's rounding adds strictly less than one slot).
func horizonSlack(n int) int { return n + 1 }

// SizeLimit is the pre-build model-size guard: building is refused with a
// *ModelTooLargeError when the estimated size exceeds either bound (0
// disables that bound). Eq. 6 keeps typical instances within memory, but
// a pathological step (huge queue, tight grid) could still build a model
// that exhausts memory mid-allocation — the guard converts that crash
// into a typed, retryable error.
type SizeLimit struct {
	MaxVariables     int
	MaxMatrixEntries int
}

// EstimateSize predicts the model size of Build(inst, scale) without
// allocating it: the number of binary x_it columns and an upper bound on
// the structural nonzeros (each column hits one assignment row plus at
// most slotDur capacity rows; capacity rows that can never bind are not
// materialized, so the entry estimate is conservative). The instant
// closed-form walk is O(jobs).
func EstimateSize(inst *Instance, scale int64) (vars, entries int) {
	if scale < 1 {
		return 0, 0
	}
	n := len(inst.Jobs)
	baseSlots := int((inst.MaxMakespan() + scale - 1) / scale)
	slots := baseSlots + horizonSlack(n)
	for _, jb := range inst.Jobs {
		dur := int((jb.Estimate + scale - 1) / scale)
		min := 0
		if jb.Submit > inst.Now {
			min = int((jb.Submit - inst.Now + scale - 1) / scale)
		}
		max := slots - dur
		if max < min {
			continue // Build will fail with ErrHorizonTooTight anyway
		}
		nv := max - min + 1
		vars += nv
		entries += nv * (1 + dur)
	}
	return vars, entries
}

// BuildGuarded is Build behind the SizeLimit guard: the size is estimated
// first and a *ModelTooLargeError returned instead of attempting an
// allocation that cannot fit. A zero SizeLimit behaves exactly like Build.
func BuildGuarded(inst *Instance, scale int64, lim SizeLimit) (*Model, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if scale < 1 {
		return nil, fmt.Errorf("ilpsched: time scale %d < 1", scale)
	}
	if lim.MaxVariables > 0 || lim.MaxMatrixEntries > 0 {
		vars, entries := EstimateSize(inst, scale)
		if (lim.MaxVariables > 0 && vars > lim.MaxVariables) ||
			(lim.MaxMatrixEntries > 0 && entries > lim.MaxMatrixEntries) {
			return nil, &ModelTooLargeError{
				Scale: scale, Variables: vars, MatrixEntries: entries,
				MaxVariables: lim.MaxVariables, MaxEntries: lim.MaxMatrixEntries,
			}
		}
	}
	return Build(inst, scale)
}

// Build constructs the model at the given time scale (use
// Scaling.TimeScale for the paper's choice).
func Build(inst *Instance, scale int64) (*Model, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if scale < 1 {
		return nil, fmt.Errorf("ilpsched: time scale %d < 1", scale)
	}
	n := len(inst.Jobs)
	baseSlots := int((inst.MaxMakespan() + scale - 1) / scale)
	slots := baseSlots + horizonSlack(n)
	spec := buildSpec{
		inst: inst, scale: scale, slots: slots,
		jobs: inst.Jobs,
		min:  make([]int, n), max: make([]int, n), dur: make([]int, n),
		capacity: make([]int, slots),
	}
	for t := 0; t < slots; t++ {
		from := inst.Now + int64(t)*scale
		spec.capacity[t] = inst.Base.MinFree(from, from+scale)
	}
	for i, jb := range inst.Jobs {
		spec.dur[i] = int((jb.Estimate + scale - 1) / scale)
		min := 0
		if jb.Submit > inst.Now {
			min = int((jb.Submit - inst.Now + scale - 1) / scale)
		}
		max := slots - spec.dur[i]
		if max < min {
			return nil, fmt.Errorf("%w: job %d does not fit the grid (slots=%d, dur=%d)",
				ErrHorizonTooTight, jb.ID, slots, spec.dur[i])
		}
		spec.min[i], spec.max[i] = min, max
	}
	return materialize(spec), nil
}

// buildSpec is the input of the shared model materializer: the modeled
// jobs with their (possibly presolve-trimmed) start-slot windows, the
// per-slot capacities (already reduced by presolve-fixed jobs), and the
// presolve carry-over (fixed entries, objective offset, dominance
// groups). Build and BuildPresolved both funnel through materialize so
// the two model layouts stay bit-identical where they overlap.
type buildSpec struct {
	inst  *Instance
	scale int64
	slots int
	jobs  []*job.Job
	min   []int
	max   []int
	dur   []int
	// capacity is the per-slot free capacity M_t (minimum free capacity
	// inside the slot window — the safe, conservative value).
	capacity []int
	// coverRows materializes a capacity row only when the windows of the
	// modeled jobs can actually cover the slot with more width than it
	// has (the presolved rule); false uses the legacy total-width rule.
	coverRows bool
	fixed     []schedule.Entry
	offset    float64
	groups    [][]int
}

// materialize allocates the lp.Problem of a spec. A capacity row is only
// materialized when it can actually bind — on a large machine with a
// short queue most slots need no row, which keeps the simplex basis
// small.
func materialize(spec buildSpec) *Model {
	n := len(spec.jobs)
	m := &Model{
		Inst: spec.inst, Scale: spec.scale, Slots: spec.slots,
		jobs: spec.jobs, fixed: spec.fixed, offset: spec.offset,
		groups:  spec.groups,
		prob:    lp.NewProblem(),
		varOf:   make([]int, n),
		minSlot: spec.min, maxSlot: spec.max, slotDur: spec.dur,
		capacity: spec.capacity,
		capRow:   make([]int, spec.slots),
	}
	bindable := rowBindable(spec)
	for t := 0; t < spec.slots; t++ {
		if bindable[t] {
			m.capRow[t] = m.prob.AddConstraint(lp.LE, float64(m.capacity[t]))
		} else {
			m.capRow[t] = -1 // can never bind
		}
	}
	// Prefix counts of materialized capacity rows, so the exact entry
	// count of a column covering slots [t, t+dur) is O(1).
	capCnt := make([]int, spec.slots+1)
	for t := 0; t < spec.slots; t++ {
		capCnt[t+1] = capCnt[t]
		if m.capRow[t] >= 0 {
			capCnt[t+1]++
		}
	}
	// First pass: the exact column/entry totals, so the whole coefficient
	// matrix is allocated in one arena instead of one append chain per
	// x_it column (a dynpsim run rebuilds this model every self-tuning
	// step).
	totalCols, totalEntries := 0, 0
	for i := range spec.jobs {
		totalCols += spec.max[i] - spec.min[i] + 1
		for t := spec.min[i]; t <= spec.max[i]; t++ {
			totalEntries += 1 + capCnt[t+spec.dur[i]] - capCnt[t]
		}
	}
	m.prob.Grow(totalCols, n, totalEntries)
	m.intCols = make([]int, 0, totalCols)
	// Second pass: assignment rows and variables.
	for i, jb := range spec.jobs {
		min, max := spec.min[i], spec.max[i]
		row := m.prob.AddConstraint(lp.EQ, 1)
		first := -1
		for t := min; t <= max; t++ {
			start := spec.inst.Now + int64(t)*spec.scale
			// Eq. 2 coefficient: (t - s_i + d_i) * w_i, integral.
			cost := float64((start - jb.Submit + jb.Estimate) * int64(jb.Width))
			col := m.prob.AddVariable(0, 1, cost, fmt.Sprintf("x_%d_%d", jb.ID, t))
			if first < 0 {
				first = col
			}
			m.prob.ReserveColumn(col, 1+capCnt[t+spec.dur[i]]-capCnt[t])
			m.prob.SetCoeff(row, col, 1)
			for u := t; u < t+spec.dur[i]; u++ {
				if m.capRow[u] >= 0 {
					m.prob.SetCoeff(m.capRow[u], col, float64(jb.Width))
				}
			}
			m.intCols = append(m.intCols, col)
		}
		m.varOf[i] = first
	}
	return m
}

// rowBindable reports per slot whether its capacity row can ever bind.
// The legacy rule compares the capacity against the total modeled width;
// the presolved (coverRows) rule compares against only the width whose
// trimmed windows can actually cover the slot, which removes many more
// rows once presolve has tightened the windows.
func rowBindable(spec buildSpec) []bool {
	out := make([]bool, spec.slots)
	if !spec.coverRows {
		totalWidth := 0
		for _, jb := range spec.jobs {
			totalWidth += jb.Width
		}
		for t := 0; t < spec.slots; t++ {
			out[t] = spec.capacity[t] < totalWidth
		}
		return out
	}
	// Diff array of the covering width: job i can occupy any slot in
	// [min_i, max_i + dur_i).
	diff := make([]int, spec.slots+1)
	for i, jb := range spec.jobs {
		from := spec.min[i]
		to := spec.max[i] + spec.dur[i]
		if to > spec.slots {
			to = spec.slots
		}
		diff[from] += jb.Width
		diff[to] -= jb.Width
	}
	cover := 0
	for t := 0; t < spec.slots; t++ {
		cover += diff[t]
		out[t] = cover > spec.capacity[t]
	}
	return out
}

// NumVariables returns the number of binary x_it columns.
func (m *Model) NumVariables() int { return len(m.intCols) }

// NumConstraints returns the number of model rows.
func (m *Model) NumConstraints() int { return m.prob.NumConstraints() }

// MatrixEntries returns the number of structural nonzeros, the quantity
// Eq. 6 budgets memory for.
func (m *Model) MatrixEntries() int { return m.prob.NumNonZeros() }

// ModeledJobs returns the number of jobs the integer program still
// carries (fewer than len(Inst.Jobs) after presolve fixing).
func (m *Model) ModeledJobs() int { return len(m.jobs) }

// FixedJobs returns the presolve-pinned jobs with their grid starts.
func (m *Model) FixedJobs() []schedule.Entry {
	return append([]schedule.Entry(nil), m.fixed...)
}

// Offset returns the Eq. 2 objective contribution of the presolve-fixed
// jobs; the MIP objective of a presolved model excludes it.
func (m *Model) Offset() float64 { return m.offset }

// ObjectiveOfVector evaluates the model objective of a 0/1 start vector
// plus the presolve offset, i.e. the full Eq. 2 value the vector
// represents. Used to rank candidate incumbents before seeding.
func (m *Model) ObjectiveOfVector(x []float64) float64 {
	sum := m.offset
	for j, v := range x {
		if v > 0.5 {
			sum += m.prob.Cost(j)
		}
	}
	return sum
}

// col returns the column of job index i starting at slot t.
func (m *Model) col(i, t int) int { return m.varOf[i] + (t - m.minSlot[i]) }

// gridListSchedule places jobs in the given index order at their earliest
// grid-feasible slot and writes the corresponding 0/1 vector into x (len
// NumVariables). capLeft is scratch of len Slots. It reports false if
// some job does not fit (cannot happen with the built-in horizon slack).
func (m *Model) gridListSchedule(order, capLeft []int, x []float64) bool {
	copy(capLeft, m.capacity)
	clear(x)
	for _, i := range order {
		jb := m.jobs[i]
		placed := false
		for t := m.minSlot[i]; t <= m.maxSlot[i]; t++ {
			fits := true
			for u := t; u < t+m.slotDur[i]; u++ {
				if capLeft[u] < jb.Width {
					fits = false
					break
				}
			}
			if fits {
				for u := t; u < t+m.slotDur[i]; u++ {
					capLeft[u] -= jb.Width
				}
				x[m.col(i, t)] = 1
				placed = true
				break
			}
		}
		if !placed {
			return false
		}
	}
	return true
}

// heuristicScratch is the working set of one Heuristic call. The
// Heuristic keeps a pool of them because with Workers > 1 the branch and
// bound calls it concurrently.
type heuristicScratch struct {
	mean    []float64
	order   []int
	capLeft []int
}

// Heuristic returns the rounding heuristic for branch and bound: jobs are
// ordered by the fractional mean start slot of the LP relaxation and
// list-scheduled on the grid. Each call returns a new vector; everything
// else it needs comes from a pool.
func (m *Model) Heuristic() mip.Heuristic {
	pool := sync.Pool{New: func() any {
		return &heuristicScratch{mean: make([]float64, len(m.jobs)), order: make([]int, len(m.jobs)),
			capLeft: make([]int, len(m.capacity))}
	}}
	return func(relax []float64) ([]float64, bool) {
		sc := pool.Get().(*heuristicScratch)
		defer pool.Put(sc)
		mean, order := sc.mean, sc.order
		for i := range m.jobs {
			var s, tot float64
			for t := m.minSlot[i]; t <= m.maxSlot[i]; t++ {
				v := relax[m.col(i, t)]
				s += v * float64(t)
				tot += v
			}
			mean[i] = 0
			if tot > 0 {
				mean[i] = s / tot
			}
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int {
			if c := cmp.Compare(mean[a], mean[b]); c != 0 {
				return c
			}
			return cmp.Compare(m.jobs[a].ID, m.jobs[b].ID)
		})
		x := make([]float64, m.prob.NumVariables())
		if !m.gridListSchedule(order, sc.capLeft, x) {
			return nil, false
		}
		return x, true
	}
}

// Brancher returns the SOS-style range brancher for branch and bound: it
// picks the job whose start-time distribution is most fractional and
// splits its start window at the fractional mean slot. Both children
// forbid half of the window, which moves the LP relaxation far more than
// fixing a single x_it variable and keeps the search tree small — the
// standard device for time-indexed formulations.
func (m *Model) Brancher() mip.Brancher {
	return func(relax []float64) [][]mip.Bound {
		n := len(m.jobs)
		const tol = 1e-6
		pick, pickScore := -1, tol
		var pickMean float64
		for i := 0; i < n; i++ {
			var mean, maxv float64
			for t := m.minSlot[i]; t <= m.maxSlot[i]; t++ {
				v := relax[m.col(i, t)]
				mean += v * float64(t)
				if v > maxv {
					maxv = v
				}
			}
			if score := 1 - maxv; score > pickScore {
				pickScore, pick, pickMean = score, i, mean
			}
		}
		if pick < 0 {
			return nil // integral: fall back (mip will not branch anyway)
		}
		lo, hi := m.minSlot[pick], m.maxSlot[pick]
		theta := int(math.Floor(pickMean))
		if theta < lo {
			theta = lo
		}
		if theta >= hi {
			theta = hi - 1
		}
		// One backing array for both children: slots lo..theta, then the
		// rest. The left child (start <= theta) forbids the late part, the
		// right child (start > theta) the early part.
		window := make([]mip.Bound, hi-lo+1)
		for t := lo; t <= hi; t++ {
			window[t-lo] = mip.Bound{Col: m.col(pick, t), Lo: 0, Hi: 0}
		}
		k := theta - lo + 1
		return [][]mip.Bound{window[k:], window[:k:k]}
	}
}

// IncumbentFromSchedule converts a (real-time) schedule into a feasible
// model vector by grid-list-scheduling the jobs in the schedule's start
// order. This is how the best policy schedule seeds the branch and bound.
// On a presolved model the schedule may still cover every waiting job —
// entries of presolve-fixed jobs are ignored — and the order is
// canonicalized within each dominance group so that the symmetry-trimmed
// windows do not reject an otherwise feasible seed.
func (m *Model) IncumbentFromSchedule(s *schedule.Schedule) ([]float64, error) {
	idx := make(map[int]int, len(m.jobs))
	for i, jb := range m.jobs {
		idx[jb.ID] = i
	}
	fixedIDs := make(map[int]bool, len(m.fixed))
	for _, e := range m.fixed {
		fixedIDs[e.Job.ID] = true
	}
	c := s.Clone()
	c.SortByStart()
	order := make([]int, 0, len(m.jobs))
	for _, e := range c.Entries {
		if i, ok := idx[e.Job.ID]; ok {
			order = append(order, i)
			continue
		}
		if fixedIDs[e.Job.ID] {
			continue // pinned by presolve: not part of the program
		}
		return nil, fmt.Errorf("ilpsched: schedule job %d not in instance", e.Job.ID)
	}
	if len(order) != len(m.jobs) {
		return nil, fmt.Errorf("ilpsched: schedule has %d modeled jobs, model %d", len(order), len(m.jobs))
	}
	m.canonicalizeGroups(order)
	x := make([]float64, m.prob.NumVariables())
	if !m.gridListSchedule(order, make([]int, len(m.capacity)), x) {
		return nil, fmt.Errorf("ilpsched: schedule order does not fit the grid")
	}
	return x, nil
}

// canonicalizeGroups rewrites the positions occupied by each dominance
// group's members (in order of appearance) to the group's canonical job
// order. Identical-shape jobs are interchangeable — same width, same
// scaled duration, same window — so this permutation changes neither
// feasibility nor the Eq. 2 total, but it makes the order respect the
// per-position windows the presolve symmetry trimming imposed.
func (m *Model) canonicalizeGroups(order []int) {
	if len(m.groups) == 0 {
		return
	}
	groupOf := make(map[int]int, len(order))
	for g, members := range m.groups {
		for _, i := range members {
			groupOf[i] = g
		}
	}
	// positions[g] collects where group g's members sit in order.
	positions := make([][]int, len(m.groups))
	for pos, i := range order {
		if g, ok := groupOf[i]; ok {
			positions[g] = append(positions[g], pos)
		}
	}
	for g, ps := range positions {
		for k, pos := range ps {
			order[pos] = m.groups[g][k]
		}
	}
}

// Solution is the result of solving the model.
type Solution struct {
	// MIP is the raw branch-and-bound result. On a presolved model its
	// Objective excludes the fixed jobs' contribution; Objective below
	// is the full Eq. 2 value.
	MIP *mip.Result
	// Objective is the Eq. 2 objective of Grid including presolve-fixed
	// jobs (MIP objective plus the presolve offset). Comparable across
	// presolved and unreduced solves of the same instance.
	Objective float64
	// Grid is the schedule exactly as the ILP chose it (starts on the
	// scaled grid), including presolve-fixed jobs.
	Grid *schedule.Schedule
	// Compacted is Grid after the §3.2 repair: jobs re-inserted in start
	// order as early as possible. This is the schedule the paper
	// compares against the policies.
	Compacted *schedule.Schedule
}

// Solve runs branch and bound on the model. opt.Heuristic and
// opt.IntegralObjective are installed automatically; pass an Incumbent
// (e.g. from IncumbentFromSchedule) to seed the search. A run that ends
// without a feasible schedule returns a *NoScheduleError (matched by
// ErrNoSchedule, and by ErrInfeasible when infeasibility is proven).
func (m *Model) Solve(opt mip.Options) (*Solution, error) {
	return m.SolveCtx(context.Background(), opt)
}

// SolveCtx is Solve with cooperative cancellation: a done context aborts
// the branch and bound mid-search with a *mip.CanceledError and leaves
// the model untouched (bounds restored), so the model can be re-solved.
func (m *Model) SolveCtx(ctx context.Context, opt mip.Options) (*Solution, error) {
	if len(m.jobs) == 0 {
		// Presolve pinned every job: nothing left to search. Synthesize an
		// optimal result so downstream consumers (reports, telemetry) see
		// a normal zero-node solve.
		return m.finishSolution(&mip.Result{Status: mip.Optimal})
	}
	opt.IntegralObjective = true
	if opt.Heuristic == nil {
		opt.Heuristic = m.Heuristic()
	}
	if opt.Brancher == nil {
		opt.Brancher = m.Brancher()
	}
	// Cover cuts (opt.RootCutRounds) are available — the capacity rows are
	// knapsacks over binaries — but are left off by default: on typical
	// self-tuning-step instances the SOS brancher closes the gap faster
	// than the root re-solves the cuts cost.
	res, err := mip.SolveCtx(ctx, m.prob, m.intCols, opt)
	if err != nil {
		return nil, err
	}
	if res.Status != mip.Optimal && res.Status != mip.Feasible {
		return nil, &NoScheduleError{Status: res.Status, Result: res}
	}
	return m.finishSolution(res)
}

// SolutionFromVector decodes a raw incumbent vector (as handed to
// mip.Options.OnIncumbent) into a full Solution: grid starts for the
// modeled jobs, presolve-fixed entries appended, §3.2 compaction run.
// objective is the MIP-level objective of the vector (the presolve
// offset is added back, exactly as SolveCtx does for final results).
// This is how the anytime serving core lifts mid-solve incumbents into
// adoptable schedules without waiting for the solve to finish.
func (m *Model) SolutionFromVector(x []float64, objective float64) (*Solution, error) {
	if len(x) < m.NumVariables() {
		return nil, fmt.Errorf("ilpsched: vector has %d entries, model needs %d", len(x), m.NumVariables())
	}
	return m.finishSolution(&mip.Result{Status: mip.Feasible, Objective: objective, X: x})
}

// finishSolution lifts a MIP result into the full-instance solution:
// extract the modeled jobs' grid starts, append the presolve-fixed
// entries, and run the §3.2 compaction over all of them.
func (m *Model) finishSolution(res *mip.Result) (*Solution, error) {
	sol := &Solution{MIP: res, Objective: res.Objective + m.offset}
	grid := &schedule.Schedule{Policy: "ILP", Now: m.Inst.Now, Machine: m.Inst.Machine}
	grid.Entries = append(grid.Entries, m.fixed...)
	for i, jb := range m.jobs {
		found := false
		for t := m.minSlot[i]; t <= m.maxSlot[i]; t++ {
			if res.X[m.col(i, t)] > 0.5 {
				grid.Entries = append(grid.Entries, schedule.Entry{
					Job: jb, Start: m.Inst.Now + int64(t)*m.Scale,
				})
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("ilpsched: job %d unassigned in MIP solution", jb.ID)
		}
	}
	sol.Grid = grid
	compacted, err := grid.Compact(m.Inst.Base)
	if err != nil {
		return nil, fmt.Errorf("ilpsched: compaction failed: %v", err)
	}
	sol.Compacted = compacted
	return sol, nil
}

// WriteLP emits the model in CPLEX LP file format, the interchange format
// the original study would have fed to CPLEX.
func (m *Model) WriteLP(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "\\ time-indexed schedule, %d jobs, scale %ds, %d slots\nMinimize\n obj:",
		len(m.jobs), m.Scale, m.Slots); err != nil {
		return err
	}
	for i := range m.jobs {
		for t := m.minSlot[i]; t <= m.maxSlot[i]; t++ {
			c := m.prob.Cost(m.col(i, t))
			fmt.Fprintf(w, " + %g %s", c, m.prob.Name(m.col(i, t)))
		}
	}
	fmt.Fprintf(w, "\nSubject To\n")
	for i, jb := range m.jobs {
		fmt.Fprintf(w, " assign_%d:", jb.ID)
		for t := m.minSlot[i]; t <= m.maxSlot[i]; t++ {
			fmt.Fprintf(w, " + %s", m.prob.Name(m.col(i, t)))
		}
		fmt.Fprintf(w, " = 1\n")
	}
	for t := 0; t < m.Slots; t++ {
		if m.capRow[t] < 0 {
			continue // capacity can never bind: row not materialized
		}
		fmt.Fprintf(w, " cap_%d:", t)
		any := false
		for i, jb := range m.jobs {
			for s := m.minSlot[i]; s <= m.maxSlot[i]; s++ {
				if s <= t && t < s+m.slotDur[i] {
					fmt.Fprintf(w, " + %d %s", jb.Width, m.prob.Name(m.col(i, s)))
					any = true
				}
			}
		}
		if !any {
			fmt.Fprintf(w, " 0 x_%d_%d", m.jobs[0].ID, m.minSlot[0])
		}
		fmt.Fprintf(w, " <= %d\n", m.capacity[t])
	}
	fmt.Fprintf(w, "Binaries\n")
	for i := range m.jobs {
		for t := m.minSlot[i]; t <= m.maxSlot[i]; t++ {
			fmt.Fprintf(w, " %s", m.prob.Name(m.col(i, t)))
		}
	}
	_, err := fmt.Fprintf(w, "\nEnd\n")
	return err
}

// ObjectiveOfSchedule evaluates the Eq. 2 objective (the weighted *sum*,
// not the normalized average) of a real-time schedule, for comparing ILP
// objectives with policy schedules on the same footing.
func ObjectiveOfSchedule(s *schedule.Schedule) float64 {
	var sum float64
	for _, e := range s.Entries {
		sum += float64(e.ResponseTime()) * float64(e.Job.Width)
	}
	return sum
}
