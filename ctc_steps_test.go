package repro

import (
	"sync"
	"testing"

	"repro/internal/dynp"
	"repro/internal/ilpsched"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ctcStep is one sampled CTC self-tuning step: the quasi off-line
// instance plus the step's basic-policy schedules (presolve upper-bound
// seeds).
type ctcStep struct {
	Inst  *ilpsched.Instance
	Seeds []*schedule.Schedule
}

// ctcStepScale is the Eq. 6 grid the sampled steps are solved on.
const ctcStepScale = 120

// maxCTCSteps is how many steps sampledCTCSteps keeps.
const maxCTCSteps = 4

var (
	ctcStepsOnce sync.Once
	ctcSteps     []*ctcStep
	ctcStepsErr  error
)

// sampledCTCSteps simulates the E1-style CTC workload (120 jobs, seed 7)
// and samples its first maxCTCSteps eligible self-tuning steps: 4 to 12
// waiting jobs, every other eligible step. The result is memoized, so the
// differential tests and the solver benchmarks all see the identical
// instances.
func sampledCTCSteps(tb testing.TB) []*ctcStep {
	tb.Helper()
	ctcStepsOnce.Do(func() {
		tr, err := workload.Generate(workload.CTC(), 120, 7)
		if err != nil {
			ctcStepsErr = err
			return
		}
		eligible := 0
		cfg := sim.DefaultConfig()
		cfg.OnStep = func(sc *sim.StepContext) {
			n := len(sc.Waiting)
			if n < 4 || n > 12 || len(sc.Result.Evals) == 0 || len(ctcSteps) >= maxCTCSteps {
				return
			}
			eligible++
			if (eligible-1)%2 != 0 {
				return
			}
			var horizon int64
			var seeds []*schedule.Schedule
			for _, e := range sc.Result.Evals {
				seeds = append(seeds, e.Schedule)
				if mk := e.Schedule.Makespan(); mk > horizon {
					horizon = mk
				}
			}
			if horizon <= sc.Now {
				return
			}
			ctcSteps = append(ctcSteps, &ctcStep{
				Inst: &ilpsched.Instance{
					Now: sc.Now, Machine: sc.Base.Total(), Base: sc.Base,
					Jobs: sc.Waiting, Horizon: horizon,
				},
				Seeds: seeds,
			})
		}
		sched := dynp.MustNew(policy.Standard(), metrics.SLDwA{}, dynp.AdvancedDecider{})
		s, err := sim.New(tr, sched, cfg)
		if err != nil {
			ctcStepsErr = err
			return
		}
		_, ctcStepsErr = s.Run()
	})
	if ctcStepsErr != nil {
		tb.Fatal(ctcStepsErr)
	}
	if len(ctcSteps) == 0 {
		tb.Fatal("CTC sampling produced no steps")
	}
	return ctcSteps
}
