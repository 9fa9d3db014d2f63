// Package core implements the paper's primary contribution: the
// comparison of optimal (CPLEX-style, here branch-and-bound) schedules
// with the schedules of the self-tuning dynP scheduler.
//
// At selected self-tuning steps the comparator extracts the quasi
// off-line instance (waiting jobs + machine history), chooses a time
// scale with Eq. 6, solves the time-indexed ILP, compacts the solution
// per §3.2, and reports the quality (Eq. 7) and performance loss of the
// best basic policy — one row of the paper's Table 1. The optimal
// schedules are observational only: they never influence the running
// simulation, exactly as the paper prescribes, so every step compares
// against the same resource-usage history.
package core

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/dynp"
	"repro/internal/ilpsched"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/mip"
	"repro/internal/policy"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/solvepipe"
	"repro/internal/table"
)

// Comparison is one row of Table 1.
type Comparison struct {
	// SubmissionTime is the step instant (the submission that triggered
	// the self-tuning step).
	SubmissionTime int64
	// Jobs is the number of waiting jobs in the step.
	Jobs int
	// MaxMakespan is the horizon bound T minus now (the "makespan"
	// column of Table 1).
	MaxMakespan int64
	// AccRuntime is the accumulated estimated runtime of the waiting jobs.
	AccRuntime int64
	// TimeScale is the Eq. 6 grid width in seconds.
	TimeScale int64
	// BestPolicy names the best basic policy of the step and PolicyValue
	// its metric value.
	BestPolicy  string
	PolicyValue float64
	// ILPValue is the metric value of the compacted ILP schedule.
	ILPValue float64
	// Quality is Eq. 7 (ILP/policy for minimize metrics) and LossPercent
	// is (1-quality)*100: positive when the ILP schedule is better,
	// possibly negative under coarse time-scaling.
	Quality     float64
	LossPercent float64
	// ComputeTime is the wall-clock time of model build + solve.
	ComputeTime time.Duration
	// Status/Nodes/LPIters describe the branch-and-bound run. A Feasible
	// status means limits were hit and the ILP value is an upper bound.
	Status  mip.Status
	Nodes   int
	LPIters int
	// Variables/MatrixEntries give the Eq. 6 problem size actually built.
	Variables     int
	MatrixEntries int
}

// Power implements the paper's closing measure of §3: since neither
// quality nor compute time alone ranks a scheduler, "the physical
// definition of power, i.e. work per time unit, is well suited": schedule
// quality earned per second of scheduling compute time. The basic
// policies (quality ≈ 1 in milliseconds) dwarf the ILP (quality 1 in
// minutes to days) on this measure, which is the paper's practical
// conclusion.
func Power(quality float64, computeTime time.Duration) float64 {
	secs := computeTime.Seconds()
	if secs <= 0 {
		return 0
	}
	return quality / secs
}

// PolicyPower returns the power of the best basic policy of the row,
// assuming the measured per-step policy scheduling time.
func (c *Comparison) PolicyPower(policyTime time.Duration) float64 {
	return Power(c.Quality, policyTime)
}

// ILPPower returns the power of the ILP schedule of the row (quality 1 by
// definition, earned over the measured compute time).
func (c *Comparison) ILPPower() float64 {
	return Power(1, c.ComputeTime)
}

// Comparator configures the per-step comparisons.
type Comparator struct {
	// Metric is the schedule metric, SLDwA in the paper's Table 1.
	Metric metrics.Metric
	// Scaling is the Eq. 6 configuration; FixedScale > 0 overrides it.
	Scaling    ilpsched.Scaling
	FixedScale int64
	// MIP are the branch-and-bound limits for each step (node and time
	// limits keep the harness bounded; the paper let CPLEX run for up to
	// 237 hours).
	MIP mip.Options
	// SeedIncumbent seeds the search with the best policy schedule, as
	// the paper seeds T with the policy makespans.
	SeedIncumbent bool
}

// NewComparator returns the paper's configuration (SLDwA, Eq. 6 scaling,
// policy-seeded search) with the given per-step node limit.
func NewComparator(maxNodes int) *Comparator {
	return &Comparator{
		Metric:        metrics.SLDwA{},
		Scaling:       ilpsched.DefaultScaling(),
		MIP:           mip.Options{MaxNodes: maxNodes},
		SeedIncumbent: true,
	}
}

// bestEvaluation returns the policy evaluation with the best metric value.
func bestEvaluation(m metrics.Metric, evals []dynp.Evaluation) dynp.Evaluation {
	best := evals[0]
	for _, e := range evals[1:] {
		if metrics.Better(m, e.Value, best.Value) {
			best = e
		}
	}
	return best
}

// CompareStep runs the full pipeline on one self-tuning step. It returns
// (nil, nil) for steps with an empty waiting queue.
func (c *Comparator) CompareStep(sc *sim.StepContext) (*Comparison, error) {
	if len(sc.Waiting) == 0 || len(sc.Result.Evals) == 0 {
		return nil, nil
	}
	best := bestEvaluation(c.Metric, sc.Result.Evals)
	inst := solvepipe.StepInstance(sc.Now, sc.Base, sc.Waiting, sc.Result)
	if inst == nil {
		return nil, nil
	}
	scale := c.FixedScale
	if scale <= 0 {
		scale = c.Scaling.TimeScale(inst)
	}
	cmp := &Comparison{
		SubmissionTime: sc.Now,
		Jobs:           len(sc.Waiting),
		MaxMakespan:    inst.MaxMakespan(),
		AccRuntime:     inst.AccumulatedRuntime(),
		TimeScale:      scale,
		BestPolicy:     best.Policy.Name(),
		PolicyValue:    best.Value,
	}
	// Not the step engine: Table 1 reports the unreduced model's size and compute time.
	start := time.Now()
	model, err := ilpsched.Build(inst, scale)
	if err != nil {
		return nil, fmt.Errorf("core: step at %d: %w", sc.Now, err)
	}
	cmp.Variables = model.NumVariables()
	cmp.MatrixEntries = model.MatrixEntries()
	opt := c.MIP
	if c.SeedIncumbent {
		if inc, err := model.IncumbentFromSchedule(best.Schedule); err == nil {
			opt.Incumbent = inc
		}
	}
	sol, err := model.Solve(opt)
	cmp.ComputeTime = time.Since(start)
	if err != nil {
		// A *ilpsched.NoScheduleError (node/time limits exhausted without an
		// incumbent, or proven infeasibility) counts as a failed comparison;
		// %w keeps the typed error matchable for callers that care.
		return nil, fmt.Errorf("core: step at %d: %w", sc.Now, err)
	}
	cmp.Status = sol.MIP.Status
	cmp.Nodes = sol.MIP.Nodes
	cmp.LPIters = sol.MIP.LPIters
	if sol.Compacted == nil {
		return nil, fmt.Errorf("core: step at %d: ILP found no schedule (%v)", sc.Now, sol.MIP.Status)
	}
	if err := sol.Compacted.Validate(sc.Base); err != nil {
		return nil, fmt.Errorf("core: step at %d: infeasible ILP schedule: %v", sc.Now, err)
	}
	cmp.ILPValue = c.Metric.Eval(sol.Compacted)
	cmp.Quality = metrics.Quality(c.Metric, cmp.ILPValue, cmp.PolicyValue)
	cmp.LossPercent = metrics.LossPercent(cmp.Quality)
	return cmp, nil
}

// Study runs a whole simulation with the comparator attached to sampled
// self-tuning steps and collects the Table 1 rows.
type Study struct {
	// Comparator does the per-step work.
	Comparator *Comparator
	// SampleEvery compares every k-th eligible step (1 = every step, the
	// paper's setting; larger values keep harness runtimes bounded).
	SampleEvery int
	// MinJobs/MaxJobs restrict comparisons to steps whose queue length is
	// in [MinJobs, MaxJobs] (0 = no upper bound); Table 1 shows steps
	// with roughly 8-33 waiting jobs.
	MinJobs, MaxJobs int

	Rows []Comparison
	// Errors counts steps whose comparison failed (e.g. node limits with
	// no schedule); the simulation itself is never disturbed.
	Errors int

	eligible int
}

// Hook returns the sim.Config.OnStep callback that feeds the study.
func (st *Study) Hook() func(*sim.StepContext) {
	if st.SampleEvery < 1 {
		st.SampleEvery = 1
	}
	return func(sc *sim.StepContext) {
		n := len(sc.Waiting)
		if n < st.MinJobs || (st.MaxJobs > 0 && n > st.MaxJobs) {
			return
		}
		st.eligible++
		if (st.eligible-1)%st.SampleEvery != 0 {
			return
		}
		cmp, err := st.Comparator.CompareStep(sc)
		if err != nil || cmp == nil {
			if err != nil {
				st.Errors++
			}
			return
		}
		st.Rows = append(st.Rows, *cmp)
	}
}

// Averages returns the aggregate row ("the last line with average values
// ... generated from all CPLEX computations").
func (st *Study) Averages() Comparison {
	var avg Comparison
	n := len(st.Rows)
	if n == 0 {
		return avg
	}
	var quality, loss, scale, jobs, mk, acc float64
	var compute time.Duration
	for _, r := range st.Rows {
		quality += r.Quality
		loss += r.LossPercent
		scale += float64(r.TimeScale)
		jobs += float64(r.Jobs)
		mk += float64(r.MaxMakespan)
		acc += float64(r.AccRuntime)
		compute += r.ComputeTime
	}
	avg.Jobs = int(jobs/float64(n) + 0.5)
	avg.MaxMakespan = int64(mk / float64(n))
	avg.AccRuntime = int64(acc / float64(n))
	avg.TimeScale = int64(scale / float64(n))
	avg.Quality = quality / float64(n)
	avg.LossPercent = loss / float64(n)
	avg.ComputeTime = compute / time.Duration(n)
	return avg
}

// FormatTable1 renders the rows and averages in the layout of the paper's
// Table 1 ("Examples of CPLEX problem sizes, the quality, and the compute
// time").
func FormatTable1(rows []Comparison, avg Comparison) string {
	t := table.New("submission", "jobs", "makespan", "acc.runtime",
		"scale[min]", "policy", "quality", "loss[%]", "compute", "status")
	for _, r := range rows {
		t.Row(r.SubmissionTime, r.Jobs, r.MaxMakespan, r.AccRuntime,
			r.TimeScale/60, r.BestPolicy,
			fmt.Sprintf("%.4f", r.Quality), fmt.Sprintf("%+.2f", r.LossPercent),
			fmtDur(r.ComputeTime), r.Status.String())
	}
	t.Separator()
	t.Row("averages", avg.Jobs, avg.MaxMakespan, avg.AccRuntime,
		avg.TimeScale/60, "",
		fmt.Sprintf("%.4f", avg.Quality), fmt.Sprintf("%+.2f", avg.LossPercent),
		fmtDur(avg.ComputeTime), "")
	return t.String()
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

// RunStudy simulates the trace with a fresh standard dynP scheduler
// (FCFS/SJF/LJF, SLDwA, advanced decider) and the study attached.
func RunStudy(tr *job.Trace, st *Study, cfg sim.Config) (*sim.Result, error) {
	sched, err := dynp.New(policy.Standard(), metrics.SLDwA{}, dynp.AdvancedDecider{})
	if err != nil {
		return nil, err
	}
	cfg.OnStep = st.Hook()
	s, err := sim.New(tr, sched, cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// BestPolicySchedule returns the best policy schedule of a step by the
// comparator's metric (exported for the examples).
func (c *Comparator) BestPolicySchedule(sc *sim.StepContext) *schedule.Schedule {
	if len(sc.Result.Evals) == 0 {
		return nil
	}
	return bestEvaluation(c.Metric, sc.Result.Evals).Schedule
}

// WriteJSON emits the study's rows and averages as JSON, for downstream
// analysis of harness runs (cmd/table1 -json).
func (st *Study) WriteJSON(w io.Writer) error {
	type payload struct {
		Rows     []Comparison `json:"rows"`
		Averages Comparison   `json:"averages"`
		Errors   int          `json:"errors"`
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(payload{Rows: st.Rows, Averages: st.Averages(), Errors: st.Errors})
}
