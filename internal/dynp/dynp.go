// Package dynp implements the self-tuning dynP scheduler of the paper:
// dynamic policy switching driven by self-tuning steps. In every step the
// scheduler computes a full schedule for each available policy (FCFS, SJF
// and LJF in the paper's CCS), evaluates every schedule with a performance
// metric so each policy is expressed by a single value, and a decider
// mechanism chooses the policy to switch to.
//
// Two deciders are provided. The simple decider ([15]) is the plain
// if-then-else cascade choosing the first policy with the best value; it
// ignores the previously active policy and therefore makes a wrong
// decision in four tie cases ([14]: FCFS is favored in three and SJF in
// one, although staying with the old policy is correct). The advanced
// decider fixes exactly those cases by staying with the old policy
// whenever it ties with the best value.
package dynp

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/schedule"
)

// Evaluation is one policy's outcome in a self-tuning step.
type Evaluation struct {
	Policy   policy.Policy
	Schedule *schedule.Schedule
	Value    float64
}

// Decider chooses the next active policy from the per-policy evaluations.
type Decider interface {
	Name() string
	// Decide returns the policy to switch to. evals is non-empty and in
	// the scheduler's fixed policy order; old is the currently active
	// policy (always one of the evaluated ones).
	Decide(m metrics.Metric, old policy.Policy, evals []Evaluation) policy.Policy
}

// SimpleDecider picks the first policy (in list order) whose value is not
// beaten by any other: the paper's three-if-then-else construct. With the
// standard order FCFS, SJF, LJF, ties are resolved toward FCFS (and SJF
// over LJF), reproducing the four wrong decisions analyzed in [14].
type SimpleDecider struct{}

func (SimpleDecider) Name() string { return "simple" }

func (SimpleDecider) Decide(m metrics.Metric, old policy.Policy, evals []Evaluation) policy.Policy {
	best := evals[0]
	for _, e := range evals[1:] {
		if metrics.Better(m, e.Value, best.Value) {
			best = e
		}
	}
	return best.Policy
}

// AdvancedDecider is the old-policy-aware decider: it behaves like the
// simple decider except that when the currently active policy ties with
// the best value, the scheduler stays with it.
type AdvancedDecider struct{}

func (AdvancedDecider) Name() string { return "advanced" }

func (AdvancedDecider) Decide(m metrics.Metric, old policy.Policy, evals []Evaluation) policy.Policy {
	best := evals[0]
	for _, e := range evals[1:] {
		if metrics.Better(m, e.Value, best.Value) {
			best = e
		}
	}
	for _, e := range evals {
		if e.Policy.Name() == old.Name() && !metrics.Better(m, best.Value, e.Value) {
			return e.Policy // old policy ties with the best: stay
		}
	}
	return best.Policy
}

// ThresholdDecider switches away from the old policy only when the best
// candidate improves on it by more than a relative threshold — the
// oscillation damping explored in the dynP scheduler family ([14]): tiny
// metric differences between policies are usually noise, and each switch
// perturbs the running plan. Threshold 0 behaves like AdvancedDecider.
type ThresholdDecider struct {
	// Threshold is the required relative improvement, e.g. 0.05 = 5 %.
	Threshold float64
}

func (d ThresholdDecider) Name() string { return "threshold" }

func (d ThresholdDecider) Decide(m metrics.Metric, old policy.Policy, evals []Evaluation) policy.Policy {
	best := evals[0]
	var oldEval *Evaluation
	for i := range evals {
		if metrics.Better(m, evals[i].Value, best.Value) {
			best = evals[i]
		}
		if evals[i].Policy.Name() == old.Name() {
			oldEval = &evals[i]
		}
	}
	if oldEval == nil {
		return best.Policy // old policy not evaluated: take the best
	}
	if !metrics.Better(m, best.Value, oldEval.Value) {
		return oldEval.Policy // old ties with the best: stay
	}
	// Relative improvement of best over old; direction-aware.
	var improvement float64
	switch {
	case oldEval.Value == 0:
		improvement = 1
	case m.Direction() == metrics.Maximize:
		improvement = (best.Value - oldEval.Value) / oldEval.Value
	default:
		improvement = (oldEval.Value - best.Value) / oldEval.Value
	}
	if improvement > d.Threshold {
		return best.Policy
	}
	return oldEval.Policy
}

// StepResult is the outcome of one self-tuning step.
type StepResult struct {
	// Chosen is the policy the decider selected.
	Chosen policy.Policy
	// Schedule is the full schedule of the chosen policy; the resource
	// manager implements it until the next step.
	Schedule *schedule.Schedule
	// Evals holds all per-policy evaluations, in scheduler policy order.
	Evals []Evaluation
	// Switched reports whether the active policy changed.
	Switched bool
}

// Best returns the evaluation of the chosen policy.
func (r *StepResult) Best() Evaluation {
	for _, e := range r.Evals {
		if e.Policy.Name() == r.Chosen.Name() {
			return e
		}
	}
	return Evaluation{} // unreachable for results produced by Step
}

// Scheduler is the self-tuning dynP scheduler.
type Scheduler struct {
	policies []policy.Policy
	metric   metrics.Metric
	decider  Decider
	current  policy.Policy
	builder  policy.Builder // scratch for every build; a Scheduler is single-goroutine

	steps    int
	switches int

	trace     *obs.Tracer
	cSteps    *obs.Counter
	cSwitches *obs.Counter
	cReplans  *obs.Counter
}

// New constructs a scheduler. policies must be non-empty; the first one is
// the initially active policy (CCS starts with FCFS).
func New(policies []policy.Policy, m metrics.Metric, d Decider) (*Scheduler, error) {
	if len(policies) == 0 {
		return nil, errors.New("dynp: no policies")
	}
	seen := map[string]bool{}
	for _, p := range policies {
		if seen[p.Name()] {
			return nil, fmt.Errorf("dynp: duplicate policy %q", p.Name())
		}
		seen[p.Name()] = true
	}
	if m == nil {
		return nil, errors.New("dynp: nil metric")
	}
	if d == nil {
		return nil, errors.New("dynp: nil decider")
	}
	return &Scheduler{policies: policies, metric: m, decider: d, current: policies[0]}, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(policies []policy.Policy, m metrics.Metric, d Decider) *Scheduler {
	s, err := New(policies, m, d)
	if err != nil {
		panic(err)
	}
	return s
}

// Current returns the active policy.
func (s *Scheduler) Current() policy.Policy { return s.current }

// Metric returns the metric the scheduler tunes for.
func (s *Scheduler) Metric() metrics.Metric { return s.metric }

// Policies returns the candidate policies in evaluation order.
func (s *Scheduler) Policies() []policy.Policy {
	return append([]policy.Policy(nil), s.policies...)
}

// Steps returns the number of self-tuning steps performed.
func (s *Scheduler) Steps() int { return s.steps }

// Switches returns how often the active policy changed.
func (s *Scheduler) Switches() int { return s.switches }

// SetObs attaches an observability sink: trace receives one
// "dynp.decision" event per self-tuning step carrying the per-policy
// metric scores that drove the decision, plus a "dynp.switch" event
// whenever the active policy changes; reg accumulates the
// dynp.steps/dynp.switches/dynp.replans counters. Either may be nil.
func (s *Scheduler) SetObs(trace *obs.Tracer, reg *obs.Registry) {
	s.trace = trace
	s.cSteps = reg.Counter("dynp.steps")
	s.cSwitches = reg.Counter("dynp.switches")
	s.cReplans = reg.Counter("dynp.replans")
}

// buildEval builds and evaluates one policy's schedule with panic
// containment: a panicking policy implementation must not kill the whole
// simulation. A recovered panic is reported like a build error.
func (s *Scheduler) buildEval(now int64, base *machine.Profile, waiting []*job.Job, p policy.Policy) (ev Evaluation, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dynp: %s: panic: %v", p.Name(), r)
			s.trace.Emit("dynp.panic",
				obs.Int("t", now),
				obs.Str("policy", p.Name()),
				obs.Str("value", fmt.Sprint(r)))
		}
	}()
	sch, berr := s.builder.Build(p, now, base, waiting)
	if berr != nil {
		return Evaluation{}, fmt.Errorf("dynp: %s: %v", p.Name(), berr)
	}
	return Evaluation{Policy: p, Schedule: sch, Value: s.metric.Eval(sch)}, nil
}

// Step performs one self-tuning step at time now: it computes full
// schedules for every policy on top of base (the profile of running
// jobs), evaluates them with the scheduler's metric, lets the decider
// choose, and switches the active policy. base is not modified.
//
// A policy whose Build panics is dropped from the step (the panic is
// recovered and traced as "dynp.panic"); Step errors only when no policy
// produced a schedule.
func (s *Scheduler) Step(now int64, base *machine.Profile, waiting []*job.Job) (*StepResult, error) {
	evals := make([]Evaluation, 0, len(s.policies))
	var firstErr error
	for _, p := range s.policies {
		ev, err := s.buildEval(now, base, waiting, p)
		// Build boundaries are not preemption points; yield so other
		// goroutines (serving handlers, the WAL writer) get the CPU
		// between policy evaluations on a small host.
		runtime.Gosched()
		if err != nil {
			firstErr = cmp.Or(firstErr, err)
			continue
		}
		evals = append(evals, ev)
	}
	if len(evals) == 0 {
		return nil, fmt.Errorf("dynp: no policy produced a schedule: %w", firstErr)
	}
	chosen := s.decider.Decide(s.metric, s.current, evals)
	res := &StepResult{Chosen: chosen, Evals: evals, Switched: chosen.Name() != s.current.Name()}
	res.Schedule = res.Best().Schedule
	if res.Switched {
		s.switches++
		s.cSwitches.Inc()
		s.trace.Emit("dynp.switch",
			obs.Int("t", now),
			obs.Str("from", s.current.Name()),
			obs.Str("to", chosen.Name()))
	}
	if s.trace.Enabled() {
		fields := make([]obs.Field, 0, len(evals)+4)
		fields = append(fields,
			obs.Int("t", now),
			obs.Int("queue_depth", int64(len(waiting))),
			obs.Str("chosen", chosen.Name()),
			obs.Bool("switched", res.Switched))
		for _, e := range evals {
			fields = append(fields, obs.Float("score_"+e.Policy.Name(), e.Value))
		}
		s.trace.Emit("dynp.decision", fields...)
	}
	s.current = chosen
	s.steps++
	s.cSteps.Inc()
	return res, nil
}

// Reschedule builds a schedule with the currently active policy without a
// self-tuning step (used by the simulator when a job finishes early and
// the plan is compacted, which is not a policy decision point).
func (s *Scheduler) Reschedule(now int64, base *machine.Profile, waiting []*job.Job) (*schedule.Schedule, error) {
	s.cReplans.Inc()
	return s.builder.Build(s.current, now, base, waiting)
}
