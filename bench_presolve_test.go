package repro

import (
	"testing"
	"time"

	"repro/internal/dynp"
	"repro/internal/ilpsched"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/mip"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/solvepipe"
)

// BenchmarkPresolveStepSolve measures one full pass over the sampled
// E1-style CTC steps — build + solve to optimality — with the presolve
// pass off and on.
func BenchmarkPresolveStepSolve(b *testing.B) {
	b.Run("presolve=off", func(b *testing.B) { benchStepSolve(b, false) })
	b.Run("presolve=on", func(b *testing.B) { benchStepSolve(b, true) })
}

// benchStepSolve builds and solves every sampled step once per
// iteration. The presolve analysis is inside the measured path on
// purpose: its cost must be paid back by the smaller search.
func benchStepSolve(b *testing.B, presolve bool) {
	steps := sampledCTCSteps(b)
	opt := mip.Options{MaxNodes: 100000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range steps {
			var m *ilpsched.Model
			var err error
			if presolve {
				m, _, err = ilpsched.BuildPresolved(st.Inst, ctcStepScale,
					ilpsched.PresolveOptions{Seeds: st.Seeds})
			} else {
				m, err = ilpsched.Build(st.Inst, ctcStepScale)
			}
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Solve(opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// recurringTrace builds the steady-state production-queue workload of
// the cross-step-reuse benchmark: every 2-hour period a whole-machine
// "backbone" job arrives on an idle 64-processor machine, followed by
// six class jobs (two recurring shape classes) at fixed offsets that all
// queue behind it and drain before the next period. Runtimes equal
// estimates, so every period after the first repeats the exact relative
// step instances of the first — the recurring-submission pattern the
// cross-step solution cache targets.
func recurringTrace(periods int) *job.Trace {
	const (
		machine = 64
		period  = 7200
	)
	var jobs []*job.Job
	add := func(submit int64, width int, est int64) {
		jobs = append(jobs, &job.Job{
			ID: len(jobs) + 1, Submit: submit, Width: width, Estimate: est, Runtime: est,
		})
	}
	for p := 0; p < periods; p++ {
		t0 := int64(p) * period
		add(t0, machine, 3600) // backbone: blocks the whole machine
		for k := int64(0); k < 3; k++ {
			add(t0+60+60*k, 16, 1800) // class A
		}
		for k := int64(0); k < 3; k++ {
			add(t0+240+60*k, 8, 1500) // class B
		}
	}
	return &job.Trace{Jobs: jobs, Processors: machine, Note: "recurring-submission fixture"}
}

// BenchmarkSimCrossStepReuse measures a complete ILP-driven simulation
// of the recurring trace per iteration, with cross-step reuse (solution
// cache + previous-schedule incumbent) off and on.
func BenchmarkSimCrossStepReuse(b *testing.B) {
	b.Run("reuse=off", func(b *testing.B) { benchReuseSim(b, false) })
	b.Run("reuse=on", func(b *testing.B) { benchReuseSim(b, true) })
}

func benchReuseSim(b *testing.B, reuse bool) {
	cfg := sim.DefaultConfig()
	cfg.ILP = &sim.ILPConfig{
		StepConfig: solvepipe.StepConfig{
			Pipe: solvepipe.Config{
				Budget:     2 * time.Second,
				Retries:    1,
				FixedScale: ctcStepScale,
				Limit:      ilpsched.SizeLimit{MaxVariables: 250000},
				MIP:        mip.Options{MaxNodes: 3000},
			},
			StepCacheOff: !reuse,
			ReuseOff:     !reuse,
		},
		Fallback: true,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sched := dynp.MustNew(policy.Standard(), metrics.SLDwA{}, dynp.AdvancedDecider{})
		s, err := sim.New(recurringTrace(10), sched, cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.ILPSteps == 0 {
			b.Fatal("no ILP steps ran")
		}
	}
}
