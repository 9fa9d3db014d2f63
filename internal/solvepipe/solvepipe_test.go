package solvepipe_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/ilpsched"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/mip"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/solvepipe"
)

func jb(id int, submit int64, width int, est int64) *job.Job {
	return &job.Job{ID: id, Submit: submit, Width: width, Estimate: est, Runtime: est}
}

func inst(m int, horizon int64, jobs ...*job.Job) *ilpsched.Instance {
	return &ilpsched.Instance{
		Now: 0, Machine: m, Base: machine.New(m, 0),
		Jobs: jobs, Horizon: horizon,
	}
}

func smallInst() *ilpsched.Instance {
	return inst(4, 1000, jb(1, 0, 2, 100), jb(2, 0, 3, 200), jb(3, 0, 1, 150))
}

// failFirst injects the kind on the first n calls, then stays clean.
type failFirst struct {
	kind faultinject.Kind
	n    int
}

func (p failFirst) Next(call int) (faultinject.Kind, bool) {
	if call <= p.n {
		return p.kind, true
	}
	return 0, false
}

func cfg() solvepipe.Config {
	return solvepipe.Config{
		Budget:     time.Second,
		FixedScale: 10,
		MIP:        mip.Options{MaxNodes: 5000},
	}
}

func TestFirstRungSuccess(t *testing.T) {
	out := solvepipe.Solve(context.Background(), cfg(), smallInst())
	if out.Failed() {
		t.Fatalf("pipeline failed: %v", out.Err)
	}
	if out.Retries() != 0 || len(out.Attempts) != 1 {
		t.Fatalf("attempts %d retries %d, want 1/0", len(out.Attempts), out.Retries())
	}
	if out.Attempts[0].Failure != solvepipe.FailNone {
		t.Fatalf("attempt failure %v, want none", out.Attempts[0].Failure)
	}
	if out.Scale != 10 {
		t.Fatalf("winning scale %d, want 10", out.Scale)
	}
	if out.Solution.Compacted == nil {
		t.Fatal("no compacted schedule")
	}
}

func TestRetryAfterInjectedTimeout(t *testing.T) {
	inj := faultinject.New(failFirst{kind: faultinject.Timeout, n: 1})
	c := cfg()
	c.Retries = 2
	c.Hook = inj.Hook
	out := solvepipe.Solve(context.Background(), c, smallInst())
	if out.Failed() {
		t.Fatalf("pipeline failed: %v", out.Err)
	}
	if out.Retries() != 1 {
		t.Fatalf("retries %d, want 1", out.Retries())
	}
	a := out.Attempts
	if a[0].Failure != solvepipe.FailTimeout || a[1].Failure != solvepipe.FailNone {
		t.Fatalf("attempt failures %v/%v, want timeout/none", a[0].Failure, a[1].Failure)
	}
	if a[1].Scale <= a[0].Scale {
		t.Fatalf("scale did not escalate: %d -> %d", a[0].Scale, a[1].Scale)
	}
	if a[1].Budget <= a[0].Budget {
		t.Fatalf("budget did not back off: %v -> %v", a[0].Budget, a[1].Budget)
	}
}

func TestPanicRecoveredAndRetried(t *testing.T) {
	inj := faultinject.New(failFirst{kind: faultinject.Panic, n: 1})
	c := cfg()
	c.Retries = 1
	c.Hook = inj.Hook
	out := solvepipe.Solve(context.Background(), c, smallInst())
	if out.Failed() {
		t.Fatalf("pipeline failed: %v", out.Err)
	}
	if out.Attempts[0].Failure != solvepipe.FailPanic {
		t.Fatalf("attempt failure %v, want panic", out.Attempts[0].Failure)
	}
	var pe *solvepipe.PanicError
	if !errors.As(out.Attempts[0].Err, &pe) {
		t.Fatalf("attempt error %T, want *PanicError", out.Attempts[0].Err)
	}
	if !strings.Contains(pe.Error(), "injected panic") {
		t.Fatalf("panic error %q does not carry the panic value", pe.Error())
	}
}

func TestLadderExhaustionEmitsObs(t *testing.T) {
	inj := faultinject.New(failFirst{kind: faultinject.Timeout, n: 100})
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	c := cfg()
	c.Retries = 2
	c.Hook = inj.Hook
	c.Trace = obs.NewTracer(&buf)
	c.Metrics = reg
	out := solvepipe.Solve(context.Background(), c, smallInst())
	if !out.Failed() {
		t.Fatal("pipeline succeeded under total fault injection")
	}
	if len(out.Attempts) != 3 || out.Retries() != 2 {
		t.Fatalf("attempts %d retries %d, want 3/2", len(out.Attempts), out.Retries())
	}
	if out.LastFailure() != solvepipe.FailTimeout {
		t.Fatalf("last failure %v, want timeout", out.LastFailure())
	}
	if !errors.Is(out.Err, ilpsched.ErrNoSchedule) {
		t.Fatalf("terminal error %v, want ErrNoSchedule match", out.Err)
	}
	if got := reg.Counter("mip.retries").Value(); got != 2 {
		t.Fatalf("mip.retries = %d, want 2", got)
	}
	trace := buf.String()
	// solve.attempt is a span: one begin and one end line per rung, with
	// the classified failure on the end event.
	begins, ends := 0, 0
	for _, line := range strings.Split(trace, "\n") {
		if !strings.Contains(line, `"ev":"solve.attempt"`) {
			continue
		}
		switch {
		case strings.Contains(line, `"phase":"begin"`):
			begins++
		case strings.Contains(line, `"phase":"end"`):
			ends++
			if !strings.Contains(line, `"failure":`) {
				t.Fatalf("attempt end without failure field: %s", line)
			}
		}
	}
	if begins != 3 || ends != 3 {
		t.Fatalf("%d/%d solve.attempt begin/end spans, want 3/3", begins, ends)
	}
	if n := strings.Count(trace, `"ev":"solve.retry"`); n != 2 {
		t.Fatalf("%d solve.retry events, want 2", n)
	}
	// The labeled attempt counter classifies every rung.
	var timeouts int64
	for _, m := range reg.Snapshot() {
		if m.Name == "solve.attempts" {
			for _, l := range m.Labels {
				if l.Key == "failure" && l.Value == "timeout" {
					timeouts = m.Value
				}
			}
		}
	}
	if timeouts != 3 {
		t.Fatalf("solve.attempts{failure=timeout} = %d, want 3", timeouts)
	}
}

func TestTooLargeEscalatesToCoarserGrid(t *testing.T) {
	i := smallInst()
	fineVars, _ := ilpsched.EstimateSize(i, 10)
	coarseVars, _ := ilpsched.EstimateSize(i, 70)
	if coarseVars >= fineVars {
		t.Fatalf("test premise broken: coarser grid not smaller (%d vs %d)", coarseVars, fineVars)
	}
	c := cfg()
	c.Retries = 3
	c.Limit = ilpsched.SizeLimit{MaxVariables: coarseVars}
	// RoundTo drives the escalation granularity: 10 -> 70 -> ...
	c.Scaling.RoundTo = 70
	out := solvepipe.Solve(context.Background(), c, i)
	if out.Failed() {
		t.Fatalf("pipeline failed: %v", out.Err)
	}
	if out.Attempts[0].Failure != solvepipe.FailTooLarge {
		t.Fatalf("first failure %v, want too-large", out.Attempts[0].Failure)
	}
	if !errors.Is(out.Attempts[0].Err, ilpsched.ErrModelTooLarge) {
		t.Fatalf("first error %v, want ErrModelTooLarge", out.Attempts[0].Err)
	}
	if out.Scale <= 10 {
		t.Fatalf("winning scale %d, want coarser than 10", out.Scale)
	}
}

func TestInfeasibleRetryCoarsensGrid(t *testing.T) {
	// Two width-3 jobs on 4 processors cannot overlap, and at scale 10
	// the ~150 s horizon grid cannot serialize them: proven infeasible.
	i := inst(4, 150, jb(1, 0, 3, 100), jb(2, 0, 3, 100))
	c := cfg()
	c.Retries = 0
	out := solvepipe.Solve(context.Background(), c, i)
	if !out.Failed() {
		t.Fatal("pipeline succeeded on an infeasible grid with no retries")
	}
	if out.LastFailure() != solvepipe.FailInfeasible {
		t.Fatalf("last failure %v, want infeasible", out.LastFailure())
	}
	if !errors.Is(out.Err, ilpsched.ErrInfeasible) {
		t.Fatalf("terminal error %v, want ErrInfeasible match", out.Err)
	}
	// One retry escalates to a 60 s grid whose rounding slack admits the
	// serialized placement: grid infeasibility is cured by coarsening,
	// which is exactly why FailInfeasible is retryable.
	c.Retries = 1
	out = solvepipe.Solve(context.Background(), c, i)
	if out.Failed() {
		t.Fatalf("coarsened retry failed: %v", out.Err)
	}
	if out.Attempts[0].Failure != solvepipe.FailInfeasible || out.Retries() != 1 {
		t.Fatalf("attempts %+v, want infeasible then success", out.Attempts)
	}
	if out.Scale <= 10 {
		t.Fatalf("winning scale %d, want coarser than 10", out.Scale)
	}
}

func TestCanceledContextNotRetried(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := cfg()
	c.Retries = 5
	out := solvepipe.Solve(ctx, c, smallInst())
	if !out.Failed() {
		t.Fatal("pipeline succeeded under a canceled context")
	}
	if len(out.Attempts) != 1 {
		t.Fatalf("attempts %d, want 1 (cancellation must not retry)", len(out.Attempts))
	}
	if out.LastFailure() != solvepipe.FailCanceled {
		t.Fatalf("failure %v, want canceled", out.LastFailure())
	}
	if !errors.Is(out.Err, mip.ErrCanceled) {
		t.Fatalf("terminal error %v, want mip.ErrCanceled match", out.Err)
	}
}

// When the previous step's schedule (ReuseSeed) is strictly better than
// the basic-policy seed, it becomes the incumbent and the outcome and
// "step.incumbent.reused" counter say so. On one processor the FCFS
// order long-then-short costs 100 + 110 = 210 while short-then-long
// costs 10 + 110 = 120, so the reuse seed must win; ties or worse go to
// the policy seed.
func TestReuseSeedBecomesIncumbentWhenBetter(t *testing.T) {
	long := jb(1, 0, 1, 100)
	short := jb(2, 0, 1, 10)
	i := inst(1, 200, long, short)
	fcfs := &schedule.Schedule{Now: 0, Machine: 1, Entries: []schedule.Entry{
		{Job: long, Start: 0}, {Job: short, Start: 100},
	}}
	spt := &schedule.Schedule{Now: 0, Machine: 1, Entries: []schedule.Entry{
		{Job: short, Start: 0}, {Job: long, Start: 10},
	}}
	reg := obs.NewRegistry()
	c := cfg()
	c.Seed = fcfs
	c.ReuseSeed = spt
	c.Metrics = reg
	out := solvepipe.Solve(context.Background(), c, i)
	if out.Failed() {
		t.Fatalf("pipeline failed: %v", out.Err)
	}
	if !out.IncumbentReused {
		t.Fatal("strictly better reuse seed was not chosen as incumbent")
	}
	if got := reg.Counter("step.incumbent.reused").Value(); got != 1 {
		t.Fatalf("step.incumbent.reused = %d, want 1", got)
	}
	// With the seeds swapped the policy seed is already the better one
	// (and wins ties by construction): no reuse.
	c.Seed, c.ReuseSeed = spt, fcfs
	out = solvepipe.Solve(context.Background(), c, i)
	if out.Failed() {
		t.Fatalf("pipeline failed: %v", out.Err)
	}
	if out.IncumbentReused {
		t.Fatal("worse reuse seed reported as incumbent")
	}
}

// The pipeline seeds every rung with the given schedule, so a budget of
// effectively zero still returns the seed (anytime semantics survive
// the ladder).
func TestSeededRungSurvivesTinyBudget(t *testing.T) {
	i := smallInst()
	m, err := ilpsched.Build(i, 10)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := m.Solve(mip.Options{MaxNodes: 5000})
	if err != nil {
		t.Fatal(err)
	}
	c := cfg()
	c.Budget = time.Nanosecond
	c.Seed = sol.Compacted
	out := solvepipe.Solve(context.Background(), c, i)
	if out.Failed() {
		t.Fatalf("seeded pipeline failed: %v", out.Err)
	}
}

// An anytime session builds its model through the same rung as the
// ladder, so it counts the presolve reductions exactly as Solve does.
func TestSolveAnytimeCountsPresolve(t *testing.T) {
	i := smallInst()
	m, err := ilpsched.Build(i, 10)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := m.Solve(mip.Options{MaxNodes: 5000})
	if err != nil {
		t.Fatal(err)
	}
	counts := func(run func(solvepipe.Config)) (fixed, rows int64) {
		reg := obs.NewRegistry()
		c := cfg()
		c.Seed = sol.Compacted
		c.Metrics = reg
		run(c)
		return reg.Counter("presolve.vars.fixed").Value(), reg.Counter("presolve.rows.removed").Value()
	}
	wantFixed, wantRows := counts(func(c solvepipe.Config) {
		if out := solvepipe.Solve(context.Background(), c, i); out.Failed() {
			t.Fatalf("Solve failed: %v", out.Err)
		}
	})
	if wantFixed == 0 || wantRows == 0 {
		t.Fatalf("test premise broken: presolve fixed %d vars and removed %d rows", wantFixed, wantRows)
	}
	gotFixed, gotRows := counts(func(c solvepipe.Config) {
		if out := solvepipe.SolveAnytime(context.Background(), c, i, nil, nil); out.Failed() {
			t.Fatalf("SolveAnytime failed: %v", out.Err)
		}
	})
	if gotFixed != wantFixed || gotRows != wantRows {
		t.Fatalf("SolveAnytime counted %d fixed vars and %d removed rows, Solve %d and %d",
			gotFixed, gotRows, wantFixed, wantRows)
	}
}
