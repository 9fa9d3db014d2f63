// Cross-step solution cache. Consecutive self-tuning steps often carry
// an unchanged waiting set — the step that triggered them only touched
// the running jobs — and the quasi off-line problem is invariant under a
// time shift: the Eq. 2 cost of assigning relative start r to job i is
// (r + (now - s_i) + d_i) * w_i, whose (now - s_i + d_i) * w_i term is a
// per-job constant, so the argmin over relative starts depends only on
// the machine, the relative free-capacity profile, the relative horizon
// and the (width, estimate, clamped relative submit) multiset of the
// waiting jobs. Two steps agreeing on exactly those data share an
// optimal relative schedule even though their absolute times and
// objective values differ.
//
// The cache therefore keys on an FNV-1a fingerprint of that invariant
// data and stores relative start times per job shape. A hit is rebased
// to the current step instant, re-matched to the current job objects by
// sorted shape (identical-shape jobs are interchangeable), validated
// against the current base profile (belt and braces against a hash
// collision) and re-compacted. Only successful pipeline solves are ever
// stored, so a degraded (fallback) step can never poison the cache.
package solvepipe

import (
	"hash/fnv"
	"sort"

	"repro/internal/ilpsched"
	"repro/internal/job"
	"repro/internal/mip"
	"repro/internal/schedule"
)

// stepCacheSize is the capacity of a Stepper's step cache.
const stepCacheSize = 64

// stepCache is a bounded FIFO cache of step solutions. It belongs to one
// Stepper and, like it, is not safe for concurrent use.
type stepCache struct {
	order []uint64
	byKey map[uint64]*cacheEntry
}

// cacheShape is one job of a cached solution: its model-relevant shape
// plus the relative start the solver chose.
type cacheShape struct {
	width     int
	estimate  int64
	relSubmit int64 // max(0, Submit - Now): the earliest relative start
	relStart  int64 // chosen start relative to the step instant
}

type cacheEntry struct {
	scale  int64
	shapes []cacheShape // sorted by shapeLess
	mip    *mip.Result  // telemetry of the original solve
}

func shapeLess(a, b cacheShape) bool {
	if a.width != b.width {
		return a.width < b.width
	}
	if a.estimate != b.estimate {
		return a.estimate < b.estimate
	}
	return a.relSubmit < b.relSubmit
}

func relSubmit(j *job.Job, now int64) int64 {
	if j.Submit > now {
		return j.Submit - now
	}
	return 0
}

// Fingerprint hashes the time-shift-invariant data of an instance: the
// machine size, the relative horizon, the relative free-capacity profile
// up to the horizon, and the sorted (width, estimate, relative submit)
// multiset of the waiting jobs. Job IDs and absolute times are excluded
// on purpose — see the package comment for why that is sound.
func Fingerprint(inst *ilpsched.Instance) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(int64(inst.Machine))
	put(inst.Horizon - inst.Now)
	// Relative capacity profile: the free capacity at now, then every
	// breakpoint strictly inside (now, horizon].
	put(int64(inst.Base.FreeAt(inst.Now)))
	for _, st := range inst.Base.Steps() {
		if st.Time <= inst.Now || st.Time > inst.Horizon {
			continue
		}
		put(st.Time - inst.Now)
		put(int64(st.Free))
	}
	shapes := make([]cacheShape, len(inst.Jobs))
	for i, jb := range inst.Jobs {
		shapes[i] = cacheShape{width: jb.Width, estimate: jb.Estimate, relSubmit: relSubmit(jb, inst.Now)}
	}
	sort.Slice(shapes, func(a, b int) bool { return shapeLess(shapes[a], shapes[b]) })
	for _, s := range shapes {
		put(int64(s.width))
		put(s.estimate)
		put(s.relSubmit)
	}
	return h.Sum64()
}

// put stores a successful solve keyed by the instance fingerprint.
func (c *stepCache) put(key uint64, inst *ilpsched.Instance, scale int64, sol *ilpsched.Solution) {
	if sol == nil || sol.Grid == nil {
		return
	}
	shapes := make([]cacheShape, 0, len(sol.Grid.Entries))
	for _, e := range sol.Grid.Entries {
		shapes = append(shapes, cacheShape{
			width: e.Job.Width, estimate: e.Job.Estimate,
			relSubmit: relSubmit(e.Job, inst.Now),
			relStart:  e.Start - inst.Now,
		})
	}
	sort.Slice(shapes, func(a, b int) bool { return shapeLess(shapes[a], shapes[b]) })
	if _, ok := c.byKey[key]; !ok {
		for len(c.order) >= stepCacheSize {
			delete(c.byKey, c.order[0])
			c.order = c.order[1:]
		}
		c.order = append(c.order, key)
	}
	c.byKey[key] = &cacheEntry{scale: scale, shapes: shapes, mip: sol.MIP}
}

// get rebases a cached solution onto the instance: current jobs are
// matched to cached shapes in sorted order (exact shape equality is
// verified, guarding against fingerprint collisions), starts are shifted
// to the current step instant, the grid schedule is validated against
// the current base profile and compacted. Returns nil on any mismatch.
func (c *stepCache) get(key uint64, inst *ilpsched.Instance) (*ilpsched.Solution, int64) {
	entry := c.byKey[key]
	if entry == nil || len(entry.shapes) != len(inst.Jobs) {
		return nil, 0
	}
	order := make([]int, len(inst.Jobs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ja, jb := inst.Jobs[order[a]], inst.Jobs[order[b]]
		sa := cacheShape{width: ja.Width, estimate: ja.Estimate, relSubmit: relSubmit(ja, inst.Now)}
		sb := cacheShape{width: jb.Width, estimate: jb.Estimate, relSubmit: relSubmit(jb, inst.Now)}
		if shapeLess(sa, sb) {
			return true
		}
		if shapeLess(sb, sa) {
			return false
		}
		return ja.ID < jb.ID
	})
	grid := &schedule.Schedule{Policy: "ILP", Now: inst.Now, Machine: inst.Machine}
	for k, s := range entry.shapes {
		jb := inst.Jobs[order[k]]
		if jb.Width != s.width || jb.Estimate != s.estimate || relSubmit(jb, inst.Now) != s.relSubmit {
			return nil, 0 // fingerprint collision: shapes disagree
		}
		grid.Entries = append(grid.Entries, schedule.Entry{Job: jb, Start: inst.Now + s.relStart})
	}
	if err := grid.Validate(inst.Base); err != nil {
		return nil, 0
	}
	compacted, err := grid.Compact(inst.Base)
	if err != nil {
		return nil, 0
	}
	sol := &ilpsched.Solution{
		MIP:       entry.mip,
		Objective: ilpsched.ObjectiveOfSchedule(grid),
		Grid:      grid,
		Compacted: compacted,
	}
	return sol, entry.scale
}
