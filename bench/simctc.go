package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"repro/internal/dynp"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// sim_ctc runs the paper's pipeline — sim.New(...).Run() with FCFS, SJF
// and LJF under SLDwA and the advanced decider — over synthetic CTC
// traces long enough to reach the paper's queue depth.
const (
	simTraces = 24
	simJobs   = 3000
	// The operation is one arrival processed by the simulator, timed at
	// queue depths around the paper's mean of ~22 waiting jobs. Fixing the
	// depth band keeps the latency a property of the code rather than of
	// how congested a seed's traces happen to be.
	simBandLo = 16
	simBandHi = 28
	streamSim = 1
)

// simTraceResult is the deterministic outcome of one simulated trace.
type simTraceResult struct {
	steps, switches, replans, queueSum, completed int
	sldwa                                         float64
}

func newScheduler() *dynp.Scheduler {
	return dynp.MustNew(policy.Standard(), metrics.SLDwA{}, dynp.AdvancedDecider{})
}

func runSimCTC(ctx context.Context, cfg *config) (*outcome, error) {
	o := newOutcome()
	nTraces, nJobs := cfg.scaled(simTraces, 1), cfg.scaled(simJobs, 200)
	traces, setupS, err := timeSetups(cfg, o, cfg.setupCount(5), func() ([]*job.Trace, string, error) {
		h := sha256.New()
		trs := make([]*job.Trace, nTraces)
		for i := range trs {
			tr, err := workload.Generate(workload.CTC(), nJobs, subSeed(cfg.seed, streamSim, i))
			if err != nil {
				return nil, "", err
			}
			for _, j := range tr.Jobs {
				binary.Write(h, binary.LittleEndian, [5]int64{int64(j.ID), j.Submit, int64(j.Width), j.Estimate, j.Runtime})
			}
			trs[i] = tr
		}
		return trs, fmt.Sprintf("%x", h.Sum(nil)[:8]), nil
	})
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setupS

	var (
		rounds  [][]float64 // per round: latency of every band arrival, in a fixed order
		first   []simTraceResult
		simSecs float64
		probe   *simProbe // the traced pass re-times the layers in round 0
	)
	if cfg.tr != nil {
		probe = &simProbe{sched: newScheduler()}
	}
	start := time.Now()
	for r := 0; r == 0 || r < maxRounds && time.Since(start).Seconds() < cfg.seconds; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var pr *simProbe
		if r == 0 {
			pr = probe
		}
		lat, res, secs := simRound(traces, cfg.tr, pr, o)
		if r == 0 {
			first, simSecs = res, secs
		} else if fmt.Sprint(res) != fmt.Sprint(first) || len(lat) != len(rounds[0]) {
			o.problem("round %d simulated differently from round 0: the simulation is not deterministic", r)
			continue
		}
		rounds = append(rounds, lat)
	}
	o.opMs = medianAcross(rounds)
	fmt.Fprintf(os.Stderr, "bench: sim_ctc %d rounds, %d band arrivals per round\n", len(rounds), len(o.opMs))
	if len(o.opMs) == 0 {
		return nil, fmt.Errorf("sim_ctc: no arrival reached queue depth %d–%d", simBandLo, simBandHi)
	}
	o.e2e["op_p50_ms"] = percentile(o.opMs, 0.5)
	o.e2e["op_p90_ms"] = percentile(o.opMs, 0.9)
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	o.layer["proc.peak_rss_mb"] = rss

	var tot simTraceResult
	h := sha256.New()
	for i, t := range first {
		o.attempted += len(traces[i].Jobs)
		o.failed += len(traces[i].Jobs) - t.completed
		tot.steps += t.steps
		tot.switches += t.switches
		tot.replans += t.replans
		tot.queueSum += t.queueSum
		fmt.Fprintf(h, "%d %d %d %.12g\n", t.steps, t.switches, t.replans, t.sldwa)
	}
	fmt.Fprintf(os.Stderr, "bench: sim_ctc result digest %x (steps %d, switches %d, replans %d)\n",
		h.Sum(nil)[:8], tot.steps, tot.switches, tot.replans)
	o.layer["sim.replans"] = float64(tot.replans)
	o.layer["sim.switches"] = float64(tot.switches)
	o.layer["sim.queue_mean"] = frac(float64(tot.queueSum), float64(tot.steps))
	if probe != nil {
		probe.report(o, tot, simSecs)
	}
	return o, nil
}

// simRound simulates every trace once with a fresh scheduler. It returns
// the latency of each arrival in the depth band (the time since the
// previous arrival's self-tuning step: adopting that plan, the starts and
// completions in between, and this arrival's step), the per-trace
// results and the summed simulation time, the probe's own time excluded.
func simRound(traces []*job.Trace, tr *tracer, probe *simProbe, o *outcome) ([]float64, []simTraceResult, float64) {
	var (
		lat  []float64
		res  = make([]simTraceResult, len(traces))
		secs float64
	)
	for i, trace := range traces {
		var last time.Time
		scfg := sim.DefaultConfig()
		scfg.OnStep = func(sc *sim.StepContext) {
			now := time.Now()
			if q := len(sc.Waiting); q >= simBandLo && q <= simBandHi {
				lat = append(lat, float64(now.Sub(last).Nanoseconds())/1e6)
			}
			if probe != nil {
				probe.step(tr, int64(i+1), sc, o)
			}
			last = time.Now() // the callback's own work is nobody's latency
			if probe != nil {
				probe.selfS += last.Sub(now).Seconds()
			}
		}
		s, err := sim.New(trace, newScheduler(), scfg)
		if err != nil {
			continue // counted as failed: no job completes
		}
		t0 := time.Now()
		last = t0
		r, err := s.Run()
		t1 := time.Now()
		secs += t1.Sub(t0).Seconds()
		tr.record("sim.Run", int64(i+1), 0, t0, t1)
		if err != nil {
			continue
		}
		res[i] = simTraceResult{steps: r.Steps, switches: r.Switches, replans: r.Replans,
			queueSum: r.QueueDepthSum, completed: len(r.Completed), sldwa: r.SlowdownWeightedByArea()}
	}
	if probe != nil {
		secs -= probe.selfS
	}
	return lat, res, secs
}

// simProbe re-times the layers of every self-tuning step of the traced
// pass's first round, right after the simulation ran the step, so the
// re-timed calls see the same host and cache state. base and the queue are
// only read, as the simulator requires of step observers.
type simProbe struct {
	sched                *dynp.Scheduler
	stepS, buildS, evalS float64
	builds               int
	// selfS is the probe's own time inside the simulation, which the
	// simulation time must not count.
	selfS float64
}

// step times dynp.Step on the step's instance, then each policy's
// policy.Build and the SLDwA Eval of its schedule as separate calls.
func (p *simProbe) step(tr *tracer, op int64, sc *sim.StepContext, o *outcome) {
	t0 := time.Now()
	_, err := p.sched.Step(sc.Now, sc.Base, sc.Waiting)
	t1 := time.Now()
	if err != nil {
		o.problem("re-timed dynp.Step failed: %v", err)
		return
	}
	tr.record("dynp.Step", op, 0, t0, t1)
	p.stepS += t1.Sub(t0).Seconds()
	for _, pol := range p.sched.Policies() {
		b0 := time.Now()
		sch, err := policy.Build(pol, sc.Now, sc.Base, sc.Waiting)
		b1 := time.Now()
		if err != nil {
			o.problem("re-timed policy.Build(%s) failed: %v", pol.Name(), err)
			continue
		}
		metrics.SLDwA{}.Eval(sch)
		e1 := time.Now()
		// Separate calls after the Step: its siblings, not its children.
		tr.record("policy.Build", op, 0, b0, b1)
		tr.record("metrics.Eval", op, 0, b1, e1)
		p.buildS += b1.Sub(b0).Seconds()
		p.evalS += e1.Sub(b1).Seconds()
		p.builds++
	}
}

// report splits the simulation time into layer shares. Each completion
// replan is one policy.Build with the active policy, costed at the mean
// re-timed build.
func (p *simProbe) report(o *outcome, tot simTraceResult, simSecs float64) {
	replanS := float64(tot.replans) * frac(p.buildS, float64(p.builds))
	o.layer["policy.build_frac"] = frac(p.buildS+replanS, simSecs)
	o.layer["metrics.eval_frac"] = frac(p.evalS, simSecs)
	o.layer["dynp.self_frac"] = frac(p.stepS-p.buildS-p.evalS, simSecs)
	o.layer["sim.self_frac"] = frac(simSecs-p.stepS-replanS, simSecs)
	o.layer["trace.layer_sum_frac"] = 1 - o.layer["sim.self_frac"]
}
