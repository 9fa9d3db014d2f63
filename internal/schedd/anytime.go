// Anytime serving: the writer loop's half of the background optimizer
// pairing (see internal/anytime for the solver half).
//
// The writer pushes an immutable problem — instance, adopted-plan seed,
// fingerprint — after every pass that mutated queue state, and adopts
// published incumbents at its own pace when the core's nudge fires. The
// invariant defended here is that an adopted incumbent is never staler
// than the queue state it was solved against: adoption re-checks the
// fingerprint, the virtual time, the exact job coverage and feasibility
// against the pushed base, and strict objective improvement, all on the
// writer goroutine, before the plan replaces the live one. Anything
// stale is counted and dropped; the solver never blocks the writer and
// the writer never blocks the solver.
package schedd

import (
	"time"

	"repro/internal/anytime"
	"repro/internal/ilpsched"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/solvepipe"
)

// pushAnytime hands the background optimizer the writer's current
// problem. Pushed whenever a writer pass mutated queue state; an empty
// or unimprovable queue pushes the idle problem, which also preempts
// any in-flight solve of outdated state.
func (c *Core) pushAnytime() {
	if c.any == nil {
		return
	}
	now := c.vnow
	idle := func() {
		c.lastAnyInst, c.lastAnyFp = nil, 0
		c.any.Update(anytime.Problem{})
	}
	if len(c.waiting) == 0 {
		idle()
		return
	}
	seed := c.currentPlanSchedule(now)
	if len(seed.Entries) != len(c.waiting) {
		// A failed step left jobs unplanned: without a feasible seed
		// covering the whole queue there is no sound incumbent to
		// improve — the next successful step re-arms the optimizer.
		idle()
		return
	}
	horizon := seed.Makespan()
	if horizon <= now {
		idle() // every waiting job starts now; nothing to reorder
		return
	}
	base, err := c.baseProfile(now)
	if err != nil {
		idle()
		return
	}
	inst := &ilpsched.Instance{
		Now: now, Machine: c.total, Base: base,
		Jobs: c.waitingSlice(), Horizon: horizon,
	}
	fp := solvepipe.Fingerprint(inst)
	c.lastAnyInst, c.lastAnyFp = inst, fp
	c.any.Update(anytime.Problem{Inst: inst, Seed: seed, Fingerprint: fp, Now: now})
}

// currentPlanSchedule materializes the adopted plan (restricted to jobs
// still waiting) as a schedule — the seed of the next anytime session
// and the objective baseline adoption compares against.
func (c *Core) currentPlanSchedule(now int64) *schedule.Schedule {
	s := &schedule.Schedule{Policy: "adopted", Now: now, Machine: c.total}
	for id, start := range c.plan {
		j, ok := c.waiting[id]
		if !ok {
			continue
		}
		if start < now {
			start = now
		}
		s.Entries = append(s.Entries, schedule.Entry{Job: j, Start: start})
	}
	s.SortByStart()
	return s
}

// adoptAnytime inspects the optimizer's best published plan and adopts
// it if — and only if — it is exactly as fresh as the problem the
// writer last pushed and strictly better than the live plan. Returns
// the adopted plan, nil when nothing was adopted. Runs on the writer
// goroutine.
func (c *Core) adoptAnytime() *anytime.Plan {
	if c.any == nil {
		return nil
	}
	plan := c.any.Best()
	if plan == nil || plan.Seq <= c.lastAnySeq {
		return nil // already inspected (several nudges can coalesce)
	}
	c.lastAnySeq = plan.Seq
	// Staleness gate: the plan must name the problem the writer pushed
	// last. The fingerprint covers the relative problem shape, Now pins
	// the absolute frame, and the per-entry check below pins the exact
	// job identities (fingerprints are shape-based by design, so two
	// different queues could collide on one).
	if c.lastAnyInst == nil || plan.Fingerprint != c.lastAnyFp || plan.Now != c.lastAnyInst.Now {
		c.cAnyStale.Inc()
		return nil
	}
	if len(plan.Schedule.Entries) != len(c.waiting) {
		c.cAnyStale.Inc()
		return nil
	}
	for _, e := range plan.Schedule.Entries {
		if _, ok := c.waiting[e.Job.ID]; !ok {
			c.cAnyStale.Inc()
			return nil
		}
		// SLO gate: the optimizer minimizes the aggregate objective and
		// may do so by starting one job later — never at the cost of a
		// deadline the twin already admitted against.
		if r := c.recs[e.Job.ID]; r != nil && r.deadline > 0 && e.Start > r.deadline {
			c.cAnyRejected.Inc()
			c.trace.Emit("anytime.adopt.slo_conflict",
				obs.Int("t", c.vnow), obs.Int("job", int64(e.Job.ID)))
			return nil
		}
	}
	// Feasibility against the pushed base (the base cannot have changed
	// since the push without the fingerprint changing with it).
	if err := plan.Schedule.Validate(c.lastAnyInst.Base); err != nil {
		c.cAnyRejected.Inc()
		c.trace.Emit("anytime.adopt.invalid", obs.Int("t", c.vnow), obs.Str("err", err.Error()))
		return nil
	}
	// Strict improvement over the live plan — an intervening step may
	// already have adopted something at least as good.
	cur := c.currentPlanSchedule(c.vnow)
	if len(cur.Entries) == len(plan.Schedule.Entries) &&
		plan.Objective >= ilpsched.ObjectiveOfSchedule(cur) {
		c.cAnyRejected.Inc()
		return nil
	}

	wallStart := time.Now()
	c.stepSeq++
	record := ReplanRecord{
		Kind: "anytime", Now: c.vnow, QueueDepth: len(c.waiting),
		Policy: c.cfg.Scheduler.Current().Name(), Outcome: "ok",
	}
	plannedBefore := len(c.newlyPlanned)
	c.stepper.SetReuseSeed(plan.Schedule)
	c.degraded, c.degReason = false, ""
	c.adoptPlan(c.vnow, plan.Schedule, false)
	c.appendPlanWAL("anytime", c.vnow, 0, false, "", c.newlyPlanned[plannedBefore:])
	c.cAnyAdopted.Inc()
	c.trace.Emit("anytime.adopted",
		obs.Int("t", c.vnow),
		obs.Int("seq", plan.Seq),
		obs.Float("objective", plan.Objective),
		obs.Float("found_ms", float64(plan.FoundAfter)/float64(time.Millisecond)))
	record.DurMs = float64(time.Since(wallStart)) / float64(time.Millisecond)
	record.Planned = len(c.newlyPlanned) - plannedBefore
	c.recordReplan(record)
	return plan
}

// sloConflicts counts schedule entries that start past the deadline
// their job was admitted with — the shared gate predicate of the step
// SLO guard and the anytime adoption path.
func (c *Core) sloConflicts(s *schedule.Schedule) int {
	n := 0
	for _, e := range s.Entries {
		if r := c.recs[e.Job.ID]; r != nil && r.deadline > 0 && e.Start > r.deadline {
			n++
		}
	}
	return n
}

// predictStart is the digital-twin admission predictor: it rebuilds the
// machine occupancy from the latest published snapshot — running jobs
// at their estimated ends, waiting jobs at their planned starts, plus
// queued-but-unplanned admissions packed greedily — and earliest-fits
// the candidate job into it. Lock-free (snapshot read only), so it runs
// on the admission path without touching the writer. Returns ok=false
// when no prediction is possible (the twin fails open: admission
// proceeds rather than 429ing on a guess).
func (c *Core) predictStart(now int64, width int, est int64) (int64, bool) {
	s := c.snap.Load()
	rs := make([]machine.Running, 0, len(s.Active))
	planned := make(map[int]bool, len(s.Active))
	for id, st := range s.Active {
		if st.State != StateRunning {
			planned[id] = true
			continue
		}
		planned[id] = true
		end := st.Start + st.Estimate
		if end <= now {
			end = now + 1
		}
		rs = append(rs, machine.Running{JobID: id, Width: st.Width, End: end})
	}
	h, err := machine.HistoryFromRunning(c.total, now, rs)
	if err != nil {
		return 0, false
	}
	p := h.Profile(c.total)
	for _, e := range s.Schedule {
		start := e.Start
		if start < now {
			start = now
		}
		if p.Reserve(start, start+e.Estimate, e.Width) != nil {
			return 0, false // snapshot raced into inconsistency; fail open
		}
	}
	// Queued-but-unplanned admissions occupy future capacity too: pack
	// them earliest-fit in ID order so a burst ahead of the next step is
	// not invisible to the twin.
	var queued []JobStatus
	c.pending.Range(func(id, v any) bool {
		if !planned[id.(int)] {
			queued = append(queued, v.(JobStatus))
		}
		return true
	})
	for i := 1; i < len(queued); i++ {
		for k := i; k > 0 && queued[k].ID < queued[k-1].ID; k-- {
			queued[k], queued[k-1] = queued[k-1], queued[k]
		}
	}
	for _, st := range queued {
		if _, ok := p.Place(now, st.Estimate, st.Width); !ok {
			return 0, false
		}
	}
	return p.EarliestFit(now, est, width)
}

// PlanAge returns the wall-clock age of the most recently adopted plan
// and refreshes the schedd.plan.age.ms gauge, so every scrape reads a
// live value rather than the age at the last adoption.
func (c *Core) PlanAge() time.Duration {
	age := time.Duration(time.Now().UnixNano() - c.lastPlanWall.Load())
	if age < 0 {
		age = 0
	}
	c.gPlanAge.Set(float64(age) / float64(time.Millisecond))
	return age
}

// AnytimeAdopted returns how many anytime incumbents this core has
// adopted (0 when the optimizer is off or unmetered).
func (c *Core) AnytimeAdopted() int64 { return c.cAnyAdopted.Value() }
