// Package sim is the discrete event simulator of a planning-based
// resource management system (the paper's CCS) driven by the self-tuning
// dynP scheduler. At every job submission a self-tuning step replans the
// complete future resource usage with estimated durations; newly planned
// jobs whose start time equals the current instant begin executing
// immediately, so "backfilling is done implicitly". Jobs run for their
// *actual* runtime; when a job finishes early the plan is rebuilt with the
// active policy, pulling waiting jobs forward — exactly the behaviour of a
// planning-based RMS.
package sim

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/dynp"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/solvepipe"
)

// eventKind orders simultaneous events: completions free resources before
// plan-driven starts consume them, and submissions replan last.
type eventKind int

const (
	evEnd eventKind = iota
	evStart
	evSubmit
)

type event struct {
	time  int64
	kind  eventKind
	seq   int // FIFO tie-break for determinism
	job   *job.Job
	start int64 // evEnd: the instant the job started
}

// eventQueue is a binary min-heap of submissions and completions ordered
// by (time, kind, seq). Starts never enter it: the plan's head is the only
// armed start event (see Simulator.next).
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	if q[i].kind != q[j].kind {
		return q[i].kind < q[j].kind
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !h.less(i, up) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return top
}

// CompletedJob records one finished job.
type CompletedJob struct {
	Job   *job.Job
	Start int64
	End   int64 // Start + actual runtime
}

// ResponseTime returns the actual response time End - Submit.
func (c CompletedJob) ResponseTime() int64 { return c.End - c.Job.Submit }

// WaitTime returns Start - Submit.
func (c CompletedJob) WaitTime() int64 { return c.Start - c.Job.Submit }

// Slowdown returns the actual slowdown (response / runtime).
func (c CompletedJob) Slowdown() float64 {
	return float64(c.ResponseTime()) / float64(c.Job.Runtime)
}

// StepContext is passed to the OnStep hook after every self-tuning step.
// It lets observers (the CPLEX-style comparator of internal/core) see the
// exact quasi off-line instance of the step without influencing the
// simulation, as the paper prescribes ("although these schedules are
// available, they are not used for the actual scheduling").
type StepContext struct {
	// Now is the step instant (the submission time).
	Now int64
	// Submitted is the job whose arrival triggered the step.
	Submitted *job.Job
	// Waiting is a snapshot of the waiting queue including Submitted.
	Waiting []*job.Job
	// Base is the machine profile of the running jobs (estimate-based),
	// i.e. the machine history of the step. Observers may clone it but
	// must not modify it.
	Base *machine.Profile
	// Result is the self-tuning outcome (all policy schedules and the
	// decider's choice).
	Result *dynp.StepResult
	// ILP, non-nil only in ILP-driven runs (Config.ILP), carries the
	// step's solve-pipeline outcome and whether the step degraded to the
	// basic-policy schedule.
	ILP *ILPStepInfo
}

// ILPStepInfo is the solve-pipeline provenance of one ILP-driven step.
type ILPStepInfo struct {
	// Outcome is the full retry-ladder record of the step's solve.
	Outcome *solvepipe.Outcome
	// Fallback reports that the pipeline produced no schedule and the
	// step adopted the chosen basic-policy schedule instead.
	Fallback bool
}

// StepFailure is the per-step failure provenance of an ILP-driven run:
// one record per step that fell back to the basic-policy schedule.
type StepFailure struct {
	// Time is the step instant.
	Time int64
	// Kind classifies the terminal failure of the retry ladder.
	Kind solvepipe.FailureKind
	// Attempts is the number of ladder rungs tried.
	Attempts int
	// Err is the terminal error text.
	Err string
}

// ILPConfig makes the simulation adopt solve-pipeline schedules: every
// self-tuning step runs through the solvepipe step engine, and the
// compacted optimal schedule replaces the basic-policy schedule. (The
// paper computes these schedules observationally; this mode is the
// "what if CPLEX actually drove the machine" experiment, which is only
// viable with the fault tolerance this configuration provides.)
// Pipe.Trace/Pipe.Metrics default to the simulation's sinks; Pipe.Seed
// defaults per step to the chosen basic-policy schedule.
type ILPConfig struct {
	solvepipe.StepConfig
	// Fallback degrades a step whose ladder is exhausted to the chosen
	// basic-policy schedule (recorded in Result.Failures). When false
	// such a step aborts the simulation — only sensible in experiments
	// that must not degrade. Either way the step engine emits a
	// "solve.fallback" trace event for the failed step.
	Fallback bool
}

// Reservation is an advance reservation: Width processors are promised to
// an external party on [Start, End) and are unavailable to batch jobs.
// Supporting these is the planning-based RMS capability the paper
// highlights ("a request for a reservation is submitted ... an answer is
// expected immediately"); queueing systems cannot offer them.
type Reservation struct {
	Start, End int64
	Width      int
}

// Config parameterizes a simulation run.
type Config struct {
	// Machine is the processor count. If zero, the trace's count is used.
	Machine int
	// Reservations are advance reservations blocking capacity windows;
	// every plan is built around them.
	Reservations []Reservation
	// ReplanOnCompletion rebuilds the plan with the active policy when a
	// job finishes (early completions pull work forward). Planning-based
	// systems do this; disable only for experiments. Default true in New.
	ReplanOnCompletion bool
	// SelfTuneOnCompletion additionally runs a full self-tuning step on
	// completions (the paper tunes only at submissions). Default false.
	SelfTuneOnCompletion bool
	// OnStep, if non-nil, observes every self-tuning step.
	OnStep func(*StepContext)
	// ILP, if non-nil, drives every self-tuning step through the
	// fault-tolerant solve pipeline (see ILPConfig). Nil preserves the
	// paper's behaviour: the basic-policy schedule is always adopted.
	ILP *ILPConfig
	// MaxSteps aborts runaway simulations after that many processed events
	// (0 = no limit).
	MaxSteps int
	// Trace, if non-nil, receives structured simulator events
	// (sim.submit, sim.start, sim.end, sim.replan, sim.selftune spans)
	// and is also attached to the scheduler (dynp.decision, dynp.switch).
	// Tracing never influences the simulation itself.
	Trace *obs.Tracer
	// Metrics, if non-nil, accumulates simulator counters and the
	// queue-depth histograms; it is also attached to the scheduler.
	Metrics *obs.Registry
}

// Result summarizes a simulation.
type Result struct {
	Completed []CompletedJob
	// Makespan is the end of the last job minus the first submission.
	Makespan int64
	// Steps and Switches are the dynP self-tuning statistics.
	Steps, Switches int
	// Replans counts plan rebuilds triggered by job completions (without
	// a self-tuning step).
	Replans int
	// PolicyUse counts self-tuning decisions per policy name.
	PolicyUse map[string]int
	// MaxQueueDepth is the largest waiting-queue length seen at a
	// self-tuning step, and QueueDepthSum the sum over all steps (so
	// QueueDepthSum/Steps is the average the paper quotes as ~22 for CTC).
	MaxQueueDepth int
	QueueDepthSum int
	// ILPSteps counts the steps driven through the solve pipeline
	// (ILP-driven runs only); ILPFallbacks of them degraded to the
	// basic-policy schedule and ILPRetries sums the retry rungs taken.
	ILPSteps, ILPFallbacks, ILPRetries int
	// ILPCacheHits counts the ILP steps answered by the cross-step
	// solution cache without building or solving a model, and
	// ILPReusedIncumbents the steps whose branch-and-bound incumbent came
	// from the previous step's compacted schedule rather than the
	// basic-policy seed.
	ILPCacheHits, ILPReusedIncumbents int
	// Failures holds the per-step failure provenance of the fallbacks.
	Failures []StepFailure
}

// MeanQueueDepth returns the average waiting-queue length per
// self-tuning step.
func (r *Result) MeanQueueDepth() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.QueueDepthSum) / float64(r.Steps)
}

// MeanResponseTime returns the average actual response time in seconds.
func (r *Result) MeanResponseTime() float64 {
	if len(r.Completed) == 0 {
		return 0
	}
	var s float64
	for _, c := range r.Completed {
		s += float64(c.ResponseTime())
	}
	return s / float64(len(r.Completed))
}

// MeanWaitTime returns the average actual waiting time in seconds.
func (r *Result) MeanWaitTime() float64 {
	if len(r.Completed) == 0 {
		return 0
	}
	var s float64
	for _, c := range r.Completed {
		s += float64(c.WaitTime())
	}
	return s / float64(len(r.Completed))
}

// MeanSlowdown returns the average actual slowdown.
func (r *Result) MeanSlowdown() float64 {
	if len(r.Completed) == 0 {
		return 0
	}
	var s float64
	for _, c := range r.Completed {
		s += c.Slowdown()
	}
	return s / float64(len(r.Completed))
}

// SlowdownWeightedByArea returns the actual SLDwA over the completed jobs.
func (r *Result) SlowdownWeightedByArea() float64 {
	var s, a float64
	for _, c := range r.Completed {
		area := float64(c.Job.ActualArea())
		s += c.Slowdown() * area
		a += area
	}
	if a == 0 {
		return 0
	}
	return s / a
}

// Utilization returns used processor-seconds / (machine * makespan).
func (r *Result) Utilization(machineSize int) float64 {
	if r.Makespan <= 0 || machineSize <= 0 {
		return 0
	}
	var a float64
	for _, c := range r.Completed {
		a += float64(c.Job.ActualArea())
	}
	return a / (float64(machineSize) * float64(r.Makespan))
}

// Simulator runs a trace against a dynP scheduler.
type Simulator struct {
	cfg       Config
	scheduler *dynp.Scheduler
	total     int

	ctx     context.Context
	clock   int64
	queue   eventQueue
	seq     int
	waiting []*job.Job        // by ID
	running []machine.Running // by (estimated End, JobID)
	plan    []schedule.Entry  // planned starts of waiting jobs, by (Start, ID)

	firstSubmit, lastEnd int64 // for Result.Makespan; firstSubmit < 0 until the first submission

	result Result

	stepper *solvepipe.Stepper // ILP-driven runs only

	// Observability sinks (all nil-safe no-ops when disabled).
	trace       *obs.Tracer
	cSubmits    *obs.Counter
	cStarts     *obs.Counter
	cEnds       *obs.Counter
	cReplans    *obs.Counter
	cFallbacks  *obs.Counter   // mip.fallbacks: ILP steps degraded to policy
	hQueueDepth *obs.Histogram // waiting-queue length per self-tuning step
	hEventDepth *obs.Histogram // live events (queue + armed start) per event
	// Labeled families of the ILP-driven path (bounded cardinality: the
	// label values are fixed outcome/failure-kind vocabularies).
	vStepOut  *obs.CounterVec // sim.step.outcome{outcome}: ok|cache_hit|fallback
	vFallback *obs.CounterVec // sim.fallback.by_cause{cause}: failure kind
}

// New creates a simulator for the trace. The scheduler is used for every
// planning decision. ReplanOnCompletion defaults to true when cfg is the
// zero value (pass a non-zero cfg to control it explicitly).
func New(t *job.Trace, s *dynp.Scheduler, cfg Config) (*Simulator, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %v", err)
	}
	if s == nil {
		return nil, fmt.Errorf("sim: nil scheduler")
	}
	total := cfg.Machine
	if total == 0 {
		total = t.Processors
	}
	if total <= 0 {
		return nil, fmt.Errorf("sim: machine size unknown (set Config.Machine or Trace.Processors)")
	}
	for _, j := range t.Jobs {
		if j.Width > total {
			return nil, fmt.Errorf("sim: %v wider than machine (%d)", j, total)
		}
	}
	for _, rv := range cfg.Reservations {
		if rv.Width < 1 || rv.Width > total {
			return nil, fmt.Errorf("sim: reservation width %d outside [1, %d]", rv.Width, total)
		}
		if rv.End <= rv.Start || rv.Start < 0 {
			return nil, fmt.Errorf("sim: bad reservation window [%d, %d)", rv.Start, rv.End)
		}
	}
	sim := &Simulator{
		cfg:         cfg,
		scheduler:   s,
		total:       total,
		firstSubmit: -1,
	}
	sim.result.PolicyUse = map[string]int{}
	if cfg.ILP != nil {
		sim.stepper = solvepipe.NewStepper(cfg.ILP.StepConfig, cfg.Metrics)
	}
	sim.trace = cfg.Trace
	if reg := cfg.Metrics; reg != nil {
		depthBounds := []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}
		sim.cSubmits = reg.Counter("sim.submits")
		sim.cStarts = reg.Counter("sim.starts")
		sim.cEnds = reg.Counter("sim.completions")
		sim.cReplans = reg.Counter("sim.replans")
		sim.cFallbacks = reg.Counter("mip.fallbacks")
		sim.hQueueDepth = reg.Histogram("sim.queue_depth", depthBounds)
		sim.hEventDepth = reg.Histogram("sim.event_loop_depth", depthBounds)
		sim.vStepOut = reg.CounterVec("sim.step.outcome", "outcome")
		sim.vFallback = reg.CounterVec("sim.fallback.by_cause", "cause")
	}
	if cfg.Trace != nil || cfg.Metrics != nil {
		s.SetObs(cfg.Trace, cfg.Metrics)
	}
	for _, j := range t.Jobs {
		sim.push(event{time: j.Submit, kind: evSubmit, job: j})
	}
	return sim, nil
}

func (s *Simulator) push(e event) {
	e.seq = s.seq
	s.seq++
	s.queue.push(e)
}

// pending returns the number of live events: the queued submissions and
// completions plus the plan's armed start.
func (s *Simulator) pending() int {
	if len(s.plan) > 0 {
		return len(s.queue) + 1
	}
	return len(s.queue)
}

// next removes and returns the next event; pending must be positive. The
// plan's head is the one armed start event: it fires after the
// completions and before the submissions of its instant.
func (s *Simulator) next() event {
	if len(s.plan) > 0 {
		at := s.plan[0].Start
		if len(s.queue) == 0 || at < s.queue[0].time ||
			at == s.queue[0].time && s.queue[0].kind > evStart {
			return event{time: at, kind: evStart}
		}
	}
	return s.queue.pop()
}

func cmpRunning(a, b machine.Running) int {
	if c := cmp.Compare(a.End, b.End); c != 0 {
		return c
	}
	return cmp.Compare(a.JobID, b.JobID)
}

func cmpJobID(j *job.Job, id int) int { return cmp.Compare(j.ID, id) }

// baseProfile builds the machine history profile from the running jobs at
// the current clock, with estimated ends (the scheduler never sees actual
// runtimes).
func (s *Simulator) baseProfile() (*machine.Profile, error) {
	h, err := machine.HistoryFromRunning(s.total, s.clock, s.running)
	if err != nil {
		return nil, err
	}
	p := h.Profile(s.total)
	for _, rv := range s.cfg.Reservations {
		if rv.End <= s.clock {
			continue // already elapsed
		}
		start := rv.Start
		if start < s.clock {
			start = s.clock
		}
		if err := p.Reserve(start, rv.End, rv.Width); err != nil {
			return nil, fmt.Errorf("sim: reservation [%d,%d)x%d conflicts: %v",
				rv.Start, rv.End, rv.Width, err)
		}
	}
	return p, nil
}

// waitingSlice returns a copy of the ID-ordered waiting queue; steps and
// their observers keep it, so it must not alias s.waiting.
func (s *Simulator) waitingSlice() []*job.Job {
	return slices.Clone(s.waiting)
}

// adoptPlan installs a new full schedule: it replaces the plan, which arms
// the start event at its first planned start, and immediately starts jobs
// planned for now.
func (s *Simulator) adoptPlan(sch *schedule.Schedule) {
	s.plan = append(s.plan[:0], sch.Entries...)
	slices.SortFunc(s.plan, func(a, b schedule.Entry) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.Job.ID, b.Job.ID)
	})
	s.startDueJobs()
}

// startDueJobs pops the plan's due prefix (planned start <= clock) and
// starts those jobs in (planned start, ID) order.
func (s *Simulator) startDueJobs() {
	k := 0
	for k < len(s.plan) && s.plan[k].Start <= s.clock {
		k++
	}
	due := s.plan[:k]
	s.plan = s.plan[k:]
	for _, e := range due {
		j := e.Job
		i, ok := slices.BinarySearchFunc(s.waiting, j.ID, cmpJobID)
		if !ok {
			continue
		}
		s.waiting = slices.Delete(s.waiting, i, i+1)
		r := machine.Running{JobID: j.ID, Width: j.Width, End: s.clock + j.Estimate}
		at, _ := slices.BinarySearchFunc(s.running, r, cmpRunning)
		s.running = slices.Insert(s.running, at, r)
		s.push(event{time: s.clock + j.Runtime, kind: evEnd, job: j, start: s.clock})
		s.cStarts.Inc()
		s.trace.Emit("sim.start",
			obs.Int("t", s.clock),
			obs.Int("job", int64(j.ID)),
			obs.Int("width", int64(j.Width)),
			obs.Int("wait", s.clock-j.Submit))
	}
}

// selfTune runs a self-tuning step and adopts the chosen schedule.
func (s *Simulator) selfTune(submitted *job.Job) error {
	base, err := s.baseProfile()
	if err != nil {
		return err
	}
	waiting := s.waitingSlice()
	s.hQueueDepth.Observe(float64(len(waiting)))
	span := s.trace.StartSpan("sim.selftune",
		obs.Int("t", s.clock),
		obs.Int("queue_depth", int64(len(waiting))))
	res, err := s.scheduler.Step(s.clock, base, waiting)
	if err != nil {
		span.End(obs.Str("status", "error"))
		return err
	}
	span.End(obs.Str("chosen", res.Chosen.Name()), obs.Bool("switched", res.Switched))
	s.result.Steps++
	if res.Switched {
		s.result.Switches++
	}
	s.result.PolicyUse[res.Chosen.Name()]++
	s.result.QueueDepthSum += len(waiting)
	if len(waiting) > s.result.MaxQueueDepth {
		s.result.MaxQueueDepth = len(waiting)
	}
	adopt := res.Schedule
	var ilp *ILPStepInfo
	if s.cfg.ILP != nil {
		adopt, ilp, err = s.ilpSchedule(res, waiting, base)
		if err != nil {
			return err
		}
	}
	if s.cfg.OnStep != nil {
		s.cfg.OnStep(&StepContext{
			Now: s.clock, Submitted: submitted, Waiting: waiting,
			Base: base, Result: res, ILP: ilp,
		})
	}
	s.adoptPlan(adopt)
	return nil
}

// ilpSchedule runs one step through the step engine and returns the
// schedule to adopt. On ladder exhaustion it degrades to the chosen
// basic-policy schedule (Config.ILP.Fallback) or aborts; a canceled
// context always aborts.
func (s *Simulator) ilpSchedule(res *dynp.StepResult, waiting []*job.Job, base *machine.Profile) (*schedule.Schedule, *ILPStepInfo, error) {
	sch, out, failKind, err := s.stepper.Step(s.ctx, s.trace, s.clock, base, waiting, res)
	if out == nil {
		return sch, nil, nil // every waiting job starts now
	}
	s.result.ILPSteps++
	s.result.ILPRetries += out.Retries()
	if out.CacheHit {
		s.result.ILPCacheHits++
	}
	if out.IncumbentReused {
		s.result.ILPReusedIncumbents++
	}
	info := &ILPStepInfo{Outcome: out}
	switch {
	case err == nil:
		if out.CacheHit {
			s.vStepOut.With("cache_hit").Inc()
		} else {
			s.vStepOut.With("ok").Inc()
		}
		return sch, info, nil
	case failKind == solvepipe.FailCanceled:
		return nil, nil, fmt.Errorf("sim: step at %d: %w", s.clock, err)
	case !s.cfg.ILP.Fallback:
		return nil, nil, fmt.Errorf("sim: step at %d: solve pipeline failed: %w", s.clock, err)
	}
	info.Fallback = true
	s.result.ILPFallbacks++
	s.cFallbacks.Inc()
	s.vStepOut.With("fallback").Inc()
	s.vFallback.With(failKind.String()).Inc()
	s.result.Failures = append(s.result.Failures, StepFailure{
		Time: s.clock, Kind: failKind, Attempts: len(out.Attempts),
		Err: err.Error(),
	})
	return sch, info, nil
}

// replan rebuilds the plan with the active policy, without self-tuning.
func (s *Simulator) replan() error {
	base, err := s.baseProfile()
	if err != nil {
		return err
	}
	s.result.Replans++
	s.cReplans.Inc()
	s.trace.Emit("sim.replan",
		obs.Int("t", s.clock),
		obs.Int("queue_depth", int64(len(s.waiting))),
		obs.Str("policy", s.scheduler.Current().Name()))
	sch, err := s.scheduler.Reschedule(s.clock, base, s.waitingSlice())
	if err != nil {
		return err
	}
	s.adoptPlan(sch)
	return nil
}

// Run executes the whole trace and returns the result.
func (s *Simulator) Run() (*Result, error) {
	return s.RunCtx(context.Background())
}

// cancelCheckEvery is the event interval between context checks in the
// run loop (the per-step solves check far more often via the pipeline).
const cancelCheckEvery = 64

// RunCtx is Run with cooperative cancellation: a done context stops the
// event loop at the next counter-gated checkpoint and hard-aborts any
// in-flight per-step solve.
func (s *Simulator) RunCtx(ctx context.Context) (*Result, error) {
	s.ctx = ctx
	for n := 0; s.pending() > 0; n++ {
		if n%cancelCheckEvery == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("sim: run canceled: %w", context.Cause(ctx))
		}
		s.hEventDepth.Observe(float64(s.pending()))
		if err := s.handle(s.next()); err != nil {
			return nil, err
		}
		if s.cfg.MaxSteps > 0 && n+1 > s.cfg.MaxSteps {
			return nil, fmt.Errorf("sim: exceeded MaxSteps=%d", s.cfg.MaxSteps)
		}
	}
	if len(s.waiting) > 0 || len(s.running) > 0 {
		return nil, fmt.Errorf("sim: finished with %d waiting and %d running jobs",
			len(s.waiting), len(s.running))
	}
	if s.firstSubmit < 0 {
		s.firstSubmit = 0
	}
	s.result.Makespan = s.lastEnd - s.firstSubmit
	out := s.result
	return &out, nil
}

// handle advances the clock to e and processes it.
func (s *Simulator) handle(e event) error {
	if e.time < s.clock {
		return fmt.Errorf("sim: time went backwards (%d < %d)", e.time, s.clock)
	}
	s.clock = e.time
	switch e.kind {
	case evEnd:
		r := machine.Running{JobID: e.job.ID, Width: e.job.Width, End: e.start + e.job.Estimate}
		i, ok := slices.BinarySearchFunc(s.running, r, cmpRunning)
		if !ok {
			return fmt.Errorf("sim: completion for job %d which is not running", e.job.ID)
		}
		s.running = slices.Delete(s.running, i, i+1)
		done := CompletedJob{Job: e.job, Start: e.start, End: s.clock}
		s.result.Completed = append(s.result.Completed, done)
		s.cEnds.Inc()
		s.trace.Emit("sim.end",
			obs.Int("t", s.clock),
			obs.Int("job", int64(e.job.ID)),
			obs.Int("response", done.ResponseTime()),
			obs.Int("wait", done.WaitTime()))
		if s.clock > s.lastEnd {
			s.lastEnd = s.clock
		}
		switch {
		case len(s.waiting) == 0:
		case s.cfg.SelfTuneOnCompletion:
			return s.selfTune(nil)
		case s.cfg.ReplanOnCompletion:
			return s.replan()
		}
	case evStart:
		s.startDueJobs()
	case evSubmit:
		if s.firstSubmit < 0 {
			s.firstSubmit = s.clock
		}
		i, _ := slices.BinarySearchFunc(s.waiting, e.job.ID, cmpJobID)
		s.waiting = slices.Insert(s.waiting, i, e.job)
		s.cSubmits.Inc()
		s.trace.Emit("sim.submit",
			obs.Int("t", s.clock),
			obs.Int("job", int64(e.job.ID)),
			obs.Int("width", int64(e.job.Width)),
			obs.Int("estimate", e.job.Estimate))
		return s.selfTune(e.job)
	}
	return nil
}

// DefaultConfig returns the paper's configuration: replan on completion,
// self-tune only at submissions.
func DefaultConfig() Config {
	return Config{ReplanOnCompletion: true}
}
