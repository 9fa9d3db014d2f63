package solvepipe

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dynp"
	"repro/internal/ilpsched"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/mip"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/schedule"
)

// stepJobs returns three jobs submitted at now on a 4-processor machine:
// the two width-3 jobs cannot overlap, so every policy schedule leaves
// something to reorder.
func stepJobs(firstID int, now int64) []*job.Job {
	mk := func(id, width int, est int64) *job.Job {
		return &job.Job{ID: id, Submit: now, Width: width, Estimate: est, Runtime: est}
	}
	return []*job.Job{mk(firstID, 3, 200), mk(firstID+1, 3, 100), mk(firstID+2, 1, 150)}
}

// overbook makes every solve return a compacted schedule that starts all
// jobs at the step instant, which the 4-processor profile cannot hold.
func overbook(next SolveFunc) SolveFunc {
	return func(ctx context.Context, m *ilpsched.Model, opt mip.Options) (*ilpsched.Solution, error) {
		sol, err := next(ctx, m, opt)
		if err != nil {
			return nil, err
		}
		bad := sol.Compacted.Clone()
		for i := range bad.Entries {
			bad.Entries[i].Start = bad.Now
		}
		sol.Compacted = bad
		return sol, nil
	}
}

// noSchedule fails every solve like a budget that ran out without an
// incumbent: a retryable failure.
func noSchedule(SolveFunc) SolveFunc {
	return func(context.Context, *ilpsched.Model, mip.Options) (*ilpsched.Solution, error) {
		return nil, fmt.Errorf("scripted budget: %w", ilpsched.ErrNoSchedule)
	}
}

// Every outcome of one engine step: the schedule it hands back, the
// failure kind, the "solve.fallback" event, and what happens to the
// reuse seed. A degraded step never seeds reuse; a step with nothing to
// optimize leaves the seed alone.
func TestStepperOutcomes(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name      string
		hook      func(SolveFunc) SolveFunc
		ctx       context.Context
		empty     bool // no waiting jobs: the horizon is not after now
		warm      bool // solve the same relative instance first
		wantOut   bool
		wantILP   bool // the returned schedule is the engine's ILP schedule
		wantKind  FailureKind
		wantErr   error
		wantSeed  string // "set", "cleared" or "kept"
		wantFalls int
		wantHit   bool
	}{
		{name: "solved", wantOut: true, wantILP: true, wantKind: FailNone, wantSeed: "set"},
		{name: "cache hit", warm: true, wantOut: true, wantILP: true, wantKind: FailNone, wantSeed: "set", wantHit: true},
		{name: "invalid schedule", hook: overbook, wantOut: true, wantKind: FailError, wantErr: ErrInvalidSchedule, wantSeed: "cleared", wantFalls: 1},
		{name: "retryable failure", hook: noSchedule, wantOut: true, wantKind: FailTimeout, wantErr: ilpsched.ErrNoSchedule, wantSeed: "cleared", wantFalls: 1},
		{name: "canceled", ctx: canceled, wantOut: true, wantKind: FailCanceled, wantErr: mip.ErrCanceled, wantSeed: "cleared"},
		{name: "horizon not after now", empty: true, wantKind: FailNone, wantSeed: "kept"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			st := NewStepper(StepConfig{Pipe: Config{
				Budget:     time.Second,
				FixedScale: 10,
				MIP:        mip.Options{MaxNodes: 5000},
				Hook:       tc.hook,
			}}, obs.NewRegistry())
			sched := dynp.MustNew(policy.Standard(), metrics.SLDwA{}, dynp.AdvancedDecider{})
			step := func(ctx context.Context, now int64, waiting []*job.Job) (*dynp.StepResult, *schedule.Schedule, *Outcome, FailureKind, error) {
				base := machine.New(4, now)
				res, err := sched.Step(now, base, waiting)
				if err != nil {
					t.Fatal(err)
				}
				sch, out, kind, err := st.Step(ctx, obs.NewTracer(&buf), now, base, waiting, res)
				return res, sch, out, kind, err
			}
			if tc.warm {
				if _, _, out, _, err := step(context.Background(), 0, stepJobs(1, 0)); err != nil || out.CacheHit {
					t.Fatalf("warm-up step: err %v, outcome %+v", err, out)
				}
				buf.Reset()
			}
			sentinel := &schedule.Schedule{Policy: "sentinel"}
			if !tc.warm {
				st.SetReuseSeed(sentinel)
			}
			before := st.last
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			const now = 1000
			waiting := stepJobs(10, now)
			if tc.empty {
				waiting = nil
			}
			res, sch, out, kind, err := step(ctx, now, waiting)

			if (out != nil) != tc.wantOut {
				t.Fatalf("outcome %+v, want present=%v", out, tc.wantOut)
			}
			if kind != tc.wantKind {
				t.Errorf("failure kind %v, want %v", kind, tc.wantKind)
			}
			if tc.wantErr == nil && err != nil || tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Errorf("error %v, want %v", err, tc.wantErr)
			}
			if tc.wantILP {
				if sch != out.Solution.Compacted || sch == res.Schedule {
					t.Error("returned schedule is not the engine's ILP schedule")
				}
				if verr := sch.Validate(machine.New(4, now)); verr != nil {
					t.Errorf("returned ILP schedule is infeasible: %v", verr)
				}
			} else if sch != res.Schedule {
				t.Error("returned schedule is not the chosen policy schedule")
			}
			if out != nil && out.CacheHit != tc.wantHit {
				t.Errorf("cache hit %v, want %v", out.CacheHit, tc.wantHit)
			}
			switch tc.wantSeed {
			case "set":
				if st.last != sch || st.last == nil {
					t.Error("reuse seed is not the adopted ILP schedule")
				}
			case "cleared":
				if st.last != nil {
					t.Error("a degraded step left a reuse seed behind")
				}
			case "kept":
				if st.last != before {
					t.Error("a step with nothing to optimize changed the reuse seed")
				}
			}
			if got := strings.Count(buf.String(), `"ev":"solve.fallback"`); got != tc.wantFalls {
				t.Errorf("%d solve.fallback events, want %d", got, tc.wantFalls)
			}
		})
	}
}
