// Package machine models the HPC machine and its future resource usage.
//
// The central type is Profile, a step function over time giving the number
// of free processors. Planning-based resource management systems (the
// paper's CCS) plan the present and future resource usage: every running
// and planned job is a reservation that lowers the free capacity over its
// interval. The "machine history" of the paper (Figure 1) — the list of
// (time stamp, resources free from that time on) tuples induced by the
// already-running jobs — is exactly the profile restricted to running
// jobs, and is monotone non-decreasing in free resources.
package machine

import (
	"fmt"
	"math"
	"slices"
)

// Horizon is the sentinel end time of the last profile segment.
const Horizon = int64(math.MaxInt64)

// Step is one segment boundary of a Profile: from Time on (until the next
// step) Free processors are available.
type Step struct {
	Time int64
	Free int
}

// Profile is the free-capacity step function of a machine. The zero value
// is not usable; construct profiles with New.
//
// Invariants: steps are strictly increasing in Time, 0 <= Free <= total,
// consecutive steps have different Free values, and the first step is at
// the profile origin.
type Profile struct {
	total int
	steps []Step // steps[i] valid on [steps[i].Time, steps[i+1].Time)
}

// New returns a profile for a machine with total processors, fully free
// from time origin onwards.
func New(total int, origin int64) *Profile {
	if total < 1 {
		panic(fmt.Sprintf("machine: non-positive machine size %d", total))
	}
	return &Profile{total: total, steps: []Step{{Time: origin, Free: total}}}
}

// Total returns the machine size M.
func (p *Profile) Total() int { return p.total }

// Origin returns the first time covered by the profile.
func (p *Profile) Origin() int64 { return p.steps[0].Time }

// Clone returns an independent copy of the profile. Policies build their
// candidate schedules on clones so that the live profile is untouched.
func (p *Profile) Clone() *Profile {
	return &Profile{total: p.total, steps: slices.Clone(p.steps)}
}

// CopyFrom makes p an independent copy of src, reusing p's step storage.
// p may be the zero Profile.
func (p *Profile) CopyFrom(src *Profile) {
	p.total = src.total
	p.steps = append(p.steps[:0], src.steps...)
}

// Steps returns a copy of the profile's segments (for display and tests).
func (p *Profile) Steps() []Step {
	return append([]Step(nil), p.steps...)
}

// segmentAt returns the index of the segment containing time t.
// t must be >= Origin().
func (p *Profile) segmentAt(t int64) int {
	// Binary search for the first step with Time > t, minus one.
	i, j := 0, len(p.steps)
	for i < j {
		h := int(uint(i+j) >> 1)
		if p.steps[h].Time > t {
			j = h
		} else {
			i = h + 1
		}
	}
	if i == 0 {
		panic(fmt.Sprintf("machine: time %d before profile origin %d", t, p.Origin()))
	}
	return i - 1
}

// FreeAt returns the number of free processors at time t.
func (p *Profile) FreeAt(t int64) int {
	return p.steps[p.segmentAt(t)].Free
}

// mergeAt removes the boundary at index i if it separates two segments
// with equal Free values.
func (p *Profile) mergeAt(i int) {
	if i > 0 && i < len(p.steps) && p.steps[i].Free == p.steps[i-1].Free {
		p.steps = append(p.steps[:i], p.steps[i+1:]...)
	}
}

// normalize merges adjacent segments with equal Free values.
func (p *Profile) normalize() {
	out := p.steps[:1]
	for _, s := range p.steps[1:] {
		if s.Free != out[len(out)-1].Free {
			out = append(out, s)
		}
	}
	p.steps = out
}

// Reserve allocates width processors on [start, end). It returns an error
// (and leaves the profile unchanged) if the capacity would go negative
// anywhere in the interval.
func (p *Profile) Reserve(start, end int64, width int) error {
	if width < 0 {
		return fmt.Errorf("machine: negative width %d", width)
	}
	if end <= start {
		return fmt.Errorf("machine: empty reservation [%d, %d)", start, end)
	}
	if start < p.Origin() {
		return fmt.Errorf("machine: reservation start %d before profile origin %d", start, p.Origin())
	}
	first, last := p.segmentAt(start), 0
	for i := first; i < len(p.steps) && p.steps[i].Time < end; i++ {
		if p.steps[i].Free < width {
			return fmt.Errorf("machine: only %d processors free at %d, need %d",
				p.steps[i].Free, maxi64(start, p.steps[i].Time), width)
		}
		last = i
	}
	p.shift(start, end, first, last, -width)
	return nil
}

// Release is the inverse of Reserve: it frees width processors on
// [start, end). It returns an error if the capacity would exceed the
// machine size anywhere in the interval.
func (p *Profile) Release(start, end int64, width int) error {
	if width < 0 {
		return fmt.Errorf("machine: negative width %d", width)
	}
	if end <= start {
		return fmt.Errorf("machine: empty release [%d, %d)", start, end)
	}
	if start < p.Origin() {
		return fmt.Errorf("machine: release start %d before profile origin %d", start, p.Origin())
	}
	first, last := p.segmentAt(start), 0
	for i := first; i < len(p.steps) && p.steps[i].Time < end; i++ {
		if p.steps[i].Free+width > p.total {
			return fmt.Errorf("machine: release would exceed machine size at %d",
				maxi64(start, p.steps[i].Time))
		}
		last = i
	}
	p.shift(start, end, first, last, width)
	return nil
}

// shift adds delta to the free capacity on [start, end), whose first and
// last segments the caller has already found and checked. Every segment
// of the run moves by the same delta, so on a normalized profile only the
// run's two boundaries can become redundant: booking is at most two
// boundary inserts and two local merges. The range check is a guard
// against callers that skipped the capacity check.
func (p *Profile) shift(start, end int64, first, last, delta int) {
	hi := len(p.steps) // an open-ended interval runs to the end of the profile
	if end != Horizon {
		if hi = last + 1; hi == len(p.steps) || p.steps[hi].Time != end {
			p.steps = slices.Insert(p.steps, hi, Step{Time: end, Free: p.steps[last].Free})
		}
	}
	lo := first
	if p.steps[lo].Time != start {
		lo++
		p.steps = slices.Insert(p.steps, lo, Step{Time: start, Free: p.steps[first].Free})
		hi++
	}
	for i := lo; i < hi; i++ {
		if p.steps[i].Free += delta; p.steps[i].Free < 0 || p.steps[i].Free > p.total {
			panic(fmt.Sprintf("machine: free capacity %d outside [0, %d] at %d",
				p.steps[i].Free, p.total, p.steps[i].Time))
		}
	}
	p.mergeAt(hi) // hi first: merging there leaves lo in place
	p.mergeAt(lo)
}

// EarliestFit returns the earliest start time >= earliest at which width
// processors are free for dur consecutive seconds. It returns ok=false
// only if width exceeds the machine size (any narrower job eventually fits
// because all reservations are finite).
func (p *Profile) EarliestFit(earliest, dur int64, width int) (start int64, ok bool) {
	start, _, _, ok = p.fit(earliest, dur, width)
	return start, ok
}

// Place books width processors for dur seconds at the earliest start
// >= earliest, as EarliestFit followed by Reserve would, and returns the
// start. The fit scan has already proved the window free, so nothing is
// searched or checked twice. It returns ok=false, leaving the profile
// unchanged, only if width exceeds the machine size.
func (p *Profile) Place(earliest, dur int64, width int) (start int64, ok bool) {
	if width < 0 {
		panic(fmt.Sprintf("machine: negative width %d", width))
	}
	start, first, last, ok := p.fit(earliest, dur, width)
	if ok {
		p.shift(start, start+dur, first, last, -width)
	}
	return start, ok
}

// fit is the scan behind EarliestFit and Place: it returns the earliest
// fitting start and the indices of the first and last segments of the
// window [start, start+dur).
func (p *Profile) fit(earliest, dur int64, width int) (start int64, first, last int, ok bool) {
	if width > p.total {
		return 0, 0, 0, false
	}
	if dur <= 0 {
		panic(fmt.Sprintf("machine: non-positive duration %d", dur))
	}
	if earliest < p.Origin() {
		earliest = p.Origin()
	}
	cand := earliest
	i := p.segmentAt(cand)
	for {
		// Verify [cand, cand+dur) fits; on failure restart after the
		// blocking segment.
		j := i
		for {
			if p.steps[j].Free < width {
				if j+1 >= len(p.steps) {
					// Blocking segment extends to the horizon: cannot
					// happen for valid profiles (last segment is fully
					// free once all finite reservations end), but guard
					// against malformed input.
					return 0, 0, 0, false
				}
				cand = p.steps[j+1].Time
				i = j + 1
				break
			}
			if j+1 >= len(p.steps) || p.steps[j+1].Time >= cand+dur {
				return cand, i, j, true // window fits entirely
			}
			j++
		}
	}
}

// MinFree returns the minimum free capacity anywhere in [from, to).
// It panics on an empty interval. Times before the origin are clamped.
func (p *Profile) MinFree(from, to int64) int {
	if to <= from {
		panic(fmt.Sprintf("machine: empty window [%d, %d)", from, to))
	}
	if from < p.Origin() {
		from = p.Origin()
		if to <= from {
			return p.steps[0].Free
		}
	}
	min := p.total
	for i := p.segmentAt(from); i < len(p.steps) && p.steps[i].Time < to; i++ {
		if p.steps[i].Free < min {
			min = p.steps[i].Free
		}
	}
	return min
}

// Utilized returns the integral of (total - free) over [from, to), i.e.
// the reserved processor-seconds in the window.
func (p *Profile) Utilized(from, to int64) int64 {
	if to <= from {
		return 0
	}
	if from < p.Origin() {
		from = p.Origin()
	}
	var used int64
	for i := p.segmentAt(from); i < len(p.steps); i++ {
		segStart := maxi64(from, p.steps[i].Time)
		segEnd := to
		if i+1 < len(p.steps) && p.steps[i+1].Time < to {
			segEnd = p.steps[i+1].Time
		}
		if segEnd <= segStart {
			break
		}
		used += int64(p.total-p.steps[i].Free) * (segEnd - segStart)
	}
	return used
}

// Validate checks the profile invariants.
func (p *Profile) Validate() error {
	if len(p.steps) == 0 {
		return fmt.Errorf("machine: empty profile")
	}
	for i, s := range p.steps {
		if s.Free < 0 || s.Free > p.total {
			return fmt.Errorf("machine: step %d free %d outside [0, %d]", i, s.Free, p.total)
		}
		if i > 0 {
			if s.Time <= p.steps[i-1].Time {
				return fmt.Errorf("machine: steps not strictly increasing at %d", i)
			}
			if s.Free == p.steps[i-1].Free {
				return fmt.Errorf("machine: unmerged equal steps at %d", i)
			}
		}
	}
	if p.steps[len(p.steps)-1].Free != p.total {
		return fmt.Errorf("machine: profile does not end fully free (open-ended reservation)")
	}
	return nil
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
