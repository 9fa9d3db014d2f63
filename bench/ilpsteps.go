package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/ilpsched"
	"repro/internal/job"
	"repro/internal/mip"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/solvepipe"
	"repro/internal/workload"
)

// ilp_steps solves self-tuning steps captured from policy-driven CTC
// simulations with the production step engine (solvepipe.Solve: build,
// presolve, LP, branch and bound, compaction) and validates each result.
// Every knob that could make the work depend on the host is pinned: one
// B&B worker, a node limit instead of a wall-clock budget, no step cache.
const (
	// Many simulations and a few spaced steps from each: the step mix then
	// varies little from seed to seed (the spread of the median step's
	// LP iterations halved from 60 to 120 simulations, while taking more
	// steps per simulation did not narrow it).
	ilpSims    = 120
	ilpSimJobs = 1000
	ilpMinJobs = 4
	ilpMaxJobs = 8
	ilpEvery   = 16 // take every ilpEvery-th eligible step
	ilpPerSim  = 18
	// The Eq. 6 grid is capped at ilpSlotCap slots and the search at
	// ilpMaxNodes nodes so a step costs milliseconds and one run solves
	// about a thousand of them. Paper-size steps (16–22 jobs, hundreds of
	// slots) cost seconds each and belong to the Table 1 experiment.
	ilpSlotCap  = 40
	ilpMaxNodes = 50
	// The budget is far above any step's cost: hitting it is a failure,
	// not a measurement.
	ilpBudget = 10 * time.Minute
	streamILP = 2
)

// ilpStep is one captured quasi off-line instance and the chosen policy
// schedule that seeds its search.
type ilpStep struct {
	inst *ilpsched.Instance
	seed *schedule.Schedule
}

// ilpStepResult is the deterministic outcome of one solve.
type ilpStepResult struct {
	status                                                           mip.Status
	objective                                                        float64
	nodes, iters, solves, pruned, warm, ft, refac, vbf, vaf, retries int
	scale                                                            int64
}

// ilpPipe is the step engine's configuration. One retry rung, as schedd
// runs it by default: presolve can trim a slot the policy seed's list
// schedule needs, and the search then starts without an incumbent and may
// end its 50 nodes without a schedule; the coarser second rung recovers.
// solvepipe.retries counts how often that happens.
func ilpPipe(st ilpStep) solvepipe.Config {
	scaling := ilpsched.DefaultScaling()
	scaling.SlotCap = ilpSlotCap
	return solvepipe.Config{
		Budget:  ilpBudget,
		Retries: 1,
		Scaling: scaling,
		MIP:     mip.Options{Workers: 1, MaxNodes: ilpMaxNodes},
		Seed:    st.seed,
	}
}

// captureILPSteps simulates the seed's traces and copies the eligible
// steps: ilpMinJobs–ilpMaxJobs waiting jobs, every ilpEvery-th, at most
// ilpPerSim per simulation.
func captureILPSteps(cfg *config) ([]ilpStep, string, error) {
	var steps []ilpStep
	h := sha256.New()
	sims, perSim := cfg.scaled(ilpSims, 1), cfg.scaled(ilpPerSim, 2)
	for i := 0; i < sims; i++ {
		tr, err := workload.Generate(workload.CTC(), cfg.scaled(ilpSimJobs, 100), subSeed(cfg.seed, streamILP, i))
		if err != nil {
			return nil, "", err
		}
		eligible, taken := 0, 0
		scfg := sim.DefaultConfig()
		scfg.OnStep = func(sc *sim.StepContext) {
			n := len(sc.Waiting)
			if n < ilpMinJobs || n > ilpMaxJobs || taken >= perSim {
				return
			}
			eligible++
			if (eligible-1)%ilpEvery != 0 {
				return
			}
			var horizon int64
			for _, e := range sc.Result.Evals {
				horizon = max(horizon, e.Schedule.Makespan())
			}
			if horizon <= sc.Now {
				return // every waiting job starts now: nothing to optimize
			}
			taken++
			st := ilpStep{
				inst: &ilpsched.Instance{Now: sc.Now, Machine: sc.Base.Total(), Base: sc.Base.Clone(),
					Jobs: append([]*job.Job(nil), sc.Waiting...), Horizon: horizon},
				seed: sc.Result.Schedule,
			}
			binary.Write(h, binary.LittleEndian, [3]int64{st.inst.Now, st.inst.Horizon, int64(n)})
			for _, j := range st.inst.Jobs {
				binary.Write(h, binary.LittleEndian, [3]int64{int64(j.ID), int64(j.Width), j.Estimate})
			}
			for _, s := range st.inst.Base.Steps() {
				binary.Write(h, binary.LittleEndian, [2]int64{s.Time, int64(s.Free)})
			}
			steps = append(steps, st)
		}
		s, err := sim.New(tr, newScheduler(), scfg)
		if err != nil {
			return nil, "", err
		}
		if _, err := s.Run(); err != nil {
			return nil, "", fmt.Errorf("capture simulation %d: %w", i, err)
		}
	}
	if len(steps) == 0 {
		return nil, "", fmt.Errorf("ilp_steps: no step with %d–%d waiting jobs", ilpMinJobs, ilpMaxJobs)
	}
	return steps, fmt.Sprintf("%x (%d steps)", h.Sum(nil)[:8], len(steps)), nil
}

func runILPSteps(ctx context.Context, cfg *config) (*outcome, error) {
	o := newOutcome()
	steps, setupS, err := timeSetups(cfg, o, cfg.setupCount(3), func() ([]ilpStep, string, error) { return captureILPSteps(cfg) })
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setupS

	var (
		rounds [][]float64
		first  []ilpStepResult
		probe  ilpProbe
	)
	start := time.Now()
	for r := 0; r == 0 || r < maxRounds && time.Since(start).Seconds() < cfg.seconds; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ms := make([]float64, len(steps))
		res := make([]ilpStepResult, len(steps))
		for k, st := range steps {
			ms[k], res[k] = solveStep(ctx, cfg.tr, int64(k+1), st, o, r == 0)
			if r == 0 && cfg.tr != nil {
				probe.step(ctx, cfg.tr, int64(k+1), st, res[k], ms[k], o)
			}
		}
		if r == 0 {
			first = res
		} else if fmt.Sprint(res) != fmt.Sprint(first) {
			o.problem("round %d solved differently from round 0: the search is not deterministic", r)
		}
		rounds = append(rounds, ms)
	}
	o.opMs = medianAcross(rounds)
	fmt.Fprintf(os.Stderr, "bench: ilp_steps %d rounds over %d steps\n", len(rounds), len(steps))
	o.e2e["op_p50_ms"] = percentile(o.opMs, 0.5)
	o.e2e["op_p90_ms"] = percentile(o.opMs, 0.9)
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	o.layer["proc.peak_rss_mb"] = rss

	o.attempted = len(steps)
	var tot ilpStepResult
	optimal := 0
	h := sha256.New()
	for _, r := range first {
		if r.status == mip.Optimal {
			optimal++
		}
		tot.nodes += r.nodes
		tot.iters += r.iters
		tot.solves += r.solves
		tot.pruned += r.pruned
		tot.warm += r.warm
		tot.ft += r.ft
		tot.refac += r.refac
		tot.vbf += r.vbf
		tot.vaf += r.vaf
		tot.retries += r.retries
		fmt.Fprintf(h, "%v %.9g %d %d\n", r.status, r.objective, r.nodes, r.iters)
	}
	fmt.Fprintf(os.Stderr, "bench: ilp_steps result digest %x (optimal %d/%d, nodes %d, LP iterations %d)\n",
		h.Sum(nil)[:8], optimal, len(first), tot.nodes, tot.iters)
	o.layer["mip.optimal_frac"] = frac(float64(optimal), float64(len(steps)))
	o.layer["ilpsched.vars_before"] = float64(tot.vbf)
	o.layer["ilpsched.vars_after"] = float64(tot.vaf)
	o.layer["mip.nodes"] = float64(tot.nodes)
	o.layer["mip.lp_iters"] = float64(tot.iters)
	o.layer["mip.lp_solves"] = float64(tot.solves)
	o.layer["mip.pruned"] = float64(tot.pruned)
	o.layer["lp.warmstart_hits"] = float64(tot.warm)
	o.layer["lp.ft_updates"] = float64(tot.ft)
	o.layer["lp.refactorizations"] = float64(tot.refac)
	o.layer["solvepipe.retries"] = float64(tot.retries)
	if cfg.tr != nil {
		probe.report(o)
	}
	return o, nil
}

// solveStep solves and validates one step and returns its wall time in
// milliseconds. With check set it also runs the correctness oracle
// (outside the timed section) and counts failures.
func solveStep(ctx context.Context, tr *tracer, op int64, st ilpStep, o *outcome, check bool) (float64, ilpStepResult) {
	t0 := time.Now()
	out := solvepipe.Solve(ctx, ilpPipe(st), st.inst)
	t1 := time.Now()
	var verr error
	if !out.Failed() {
		verr = out.Solution.Compacted.Validate(st.inst.Base)
	}
	t2 := time.Now()
	root := tr.record("step", op, 0, t0, t2)
	tr.record("solvepipe.Solve", op, root, t0, t1)
	tr.record("schedule.Validate", op, root, t1, t2)

	ms := float64(t2.Sub(t0).Nanoseconds()) / 1e6
	if out.Failed() {
		if check {
			o.failed++
			o.problem("step %d: solve pipeline failed: %v", op, out.Err)
		}
		return ms, ilpStepResult{}
	}
	r := out.Solution.MIP
	res := ilpStepResult{status: r.Status, objective: out.Solution.Objective, nodes: r.Nodes,
		iters: r.LPIters, solves: r.LPSolves, pruned: r.Pruned, warm: r.WarmStartHits,
		ft: r.FTUpdates, refac: r.Refactorizations, retries: out.Retries(), scale: out.Scale}
	if ps := out.Presolve; ps != nil {
		res.vbf, res.vaf = ps.VarsBefore, ps.VarsAfter
	}
	if !check {
		return ms, res
	}
	switch {
	case r.DeadlineHit:
		o.failed++
		o.problem("step %d: hit the %s budget", op, ilpBudget)
	case verr != nil:
		o.failed++
		o.problem("step %d: compacted ILP schedule is infeasible: %v", op, verr)
	default:
		if seedObj, ok := seedObjective(st, out.Scale); ok && out.Solution.Objective > seedObj+1e-6*math.Max(1, math.Abs(seedObj)) {
			o.failed++
			o.problem("step %d: ILP objective %.6g is worse than its policy seed's %.6g", op, out.Solution.Objective, seedObj)
		}
	}
	return ms, res
}

// seedObjective is the Eq. 2 objective of the policy seed on the step's
// grid — the incumbent the search starts from, so the ILP can never end
// above it.
func seedObjective(st ilpStep, scale int64) (float64, bool) {
	m, _, err := ilpsched.BuildPresolved(st.inst, scale, ilpsched.PresolveOptions{Seeds: []*schedule.Schedule{st.seed}})
	if err != nil {
		return 0, false
	}
	x, err := m.IncumbentFromSchedule(st.seed)
	if err != nil {
		return 0, false // the seed does not fit the grid; the search started without it
	}
	return m.ObjectiveOfVector(x), true
}

// ilpProbe sums the re-timed layer calls of the traced pass.
type ilpProbe struct {
	stepS, buildS, rootS, fullS, validateS float64
}

// step re-times one step's layers as separate calls, right after the
// pipeline solved it so they see the same host and cache state: the
// presolved build, a root-only solve (MaxNodes 1), the full solve — which
// must repeat the pipeline's search exactly — and the validation. Each
// solve gets a freshly built model.
func (p *ilpProbe) step(ctx context.Context, tr *tracer, op int64, st ilpStep, res ilpStepResult, ms float64, o *outcome) {
	if res.scale == 0 {
		return // the pipeline failed on this step
	}
	p.stepS += ms / 1e3
	opts := ilpsched.PresolveOptions{Seeds: []*schedule.Schedule{st.seed}}
	// build makes a fresh model and the options the pipeline would solve
	// it with, the policy seed as incumbent included.
	build := func() (*ilpsched.Model, mip.Options, error) {
		m, _, err := ilpsched.BuildPresolved(st.inst, res.scale, opts)
		if err != nil {
			return nil, mip.Options{}, err
		}
		mo := ilpPipe(st).MIP
		mo.TimeLimit = ilpBudget
		if x, err := m.IncumbentFromSchedule(st.seed); err == nil {
			mo.Incumbent = x
		}
		return m, mo, nil
	}
	t0 := time.Now()
	_, _, err := ilpsched.BuildPresolved(st.inst, res.scale, opts)
	t1 := time.Now()
	if err != nil {
		o.problem("step %d: probe build failed: %v", op, err)
		return
	}
	tr.record("ilpsched.BuildPresolved", op, 0, t0, t1)
	p.buildS += t1.Sub(t0).Seconds()

	m, mo, _ := build()
	mo.MaxNodes = 1
	t0 = time.Now()
	_, _ = m.SolveCtx(ctx, mo) // a root-only solve may end without a schedule
	t1 = time.Now()
	tr.record("mip.Solve.root", op, 0, t0, t1)
	p.rootS += t1.Sub(t0).Seconds()

	m, mo, _ = build()
	t0 = time.Now()
	sol, err := m.SolveCtx(ctx, mo)
	t1 = time.Now()
	tr.record("mip.Solve", op, 0, t0, t1)
	p.fullS += t1.Sub(t0).Seconds()
	if err != nil || sol.MIP.Nodes != res.nodes || sol.MIP.LPIters != res.iters {
		o.problem("step %d: the probe's full solve did not repeat the pipeline's search", op)
		return
	}
	t0 = time.Now()
	_ = sol.Compacted.Validate(st.inst.Base)
	t1 = time.Now()
	tr.record("schedule.Validate", op, 0, t0, t1)
	p.validateS += t1.Sub(t0).Seconds()
}

// report turns the probe sums into shares of the measured step time: the
// build (with presolve), the root LP, the rest of branch and bound,
// validation, and what remains for the pipeline itself (incumbent
// seeding, a failed first rung, bookkeeping).
func (p ilpProbe) report(o *outcome) {
	o.layer["ilpsched.build_frac"] = frac(p.buildS, p.stepS)
	o.layer["lp.root_frac"] = frac(p.rootS, p.stepS)
	o.layer["mip.bnb_frac"] = frac(p.fullS-p.rootS, p.stepS)
	o.layer["schedule.validate_frac"] = frac(p.validateS, p.stepS)
	o.layer["solvepipe.self_frac"] = frac(p.stepS-p.buildS-p.fullS-p.validateS, p.stepS)
	o.layer["trace.layer_sum_frac"] = frac(p.buildS+p.fullS+p.validateS, p.stepS)
}
