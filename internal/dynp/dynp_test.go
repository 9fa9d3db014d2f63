package dynp

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/schedule"
	"repro/internal/stats"
)

func j(id int, submit int64, width int, est int64) *job.Job {
	return &job.Job{ID: id, Submit: submit, Width: width, Estimate: est, Runtime: est}
}

func evalsWith(values ...float64) []Evaluation {
	ps := policy.Standard()
	evals := make([]Evaluation, len(values))
	for i, v := range values {
		evals[i] = Evaluation{Policy: ps[i], Value: v, Schedule: &schedule.Schedule{Policy: ps[i].Name()}}
	}
	return evals
}

func TestSimpleDeciderPicksMin(t *testing.T) {
	d := SimpleDecider{}
	got := d.Decide(metrics.SLDwA{}, policy.FCFS{}, evalsWith(3, 1, 2))
	if got.Name() != "SJF" {
		t.Fatalf("got %s, want SJF", got.Name())
	}
}

func TestSimpleDeciderMaximizeMetric(t *testing.T) {
	d := SimpleDecider{}
	got := d.Decide(metrics.Utilization{}, policy.FCFS{}, evalsWith(0.2, 0.9, 0.5))
	if got.Name() != "SJF" {
		t.Fatalf("got %s, want SJF (highest utilization)", got.Name())
	}
}

// The four wrong decisions of the simple decider ([14]): ties are resolved
// toward FCFS in three cases and toward SJF in one, although the old
// policy should be kept. The advanced decider stays with the old policy.
func TestDeciderWrongTieCases(t *testing.T) {
	m := metrics.SLDwA{}
	cases := []struct {
		name         string
		old          policy.Policy
		values       []float64 // FCFS, SJF, LJF
		simpleWant   string
		advancedWant string
	}{
		{"FCFS==SJF best, old SJF", policy.SJF{}, []float64{1, 1, 2}, "FCFS", "SJF"},
		{"FCFS==LJF best, old LJF", policy.LJF{}, []float64{1, 2, 1}, "FCFS", "LJF"},
		{"all equal, old LJF", policy.LJF{}, []float64{1, 1, 1}, "FCFS", "LJF"},
		{"SJF==LJF best, old LJF", policy.LJF{}, []float64{2, 1, 1}, "SJF", "LJF"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := (SimpleDecider{}).Decide(m, c.old, evalsWith(c.values...)); got.Name() != c.simpleWant {
				t.Fatalf("simple: got %s, want %s", got.Name(), c.simpleWant)
			}
			if got := (AdvancedDecider{}).Decide(m, c.old, evalsWith(c.values...)); got.Name() != c.advancedWant {
				t.Fatalf("advanced: got %s, want %s", got.Name(), c.advancedWant)
			}
		})
	}
}

func TestAdvancedDeciderSwitchesOnStrictImprovement(t *testing.T) {
	got := (AdvancedDecider{}).Decide(metrics.SLDwA{}, policy.FCFS{}, evalsWith(2, 1, 3))
	if got.Name() != "SJF" {
		t.Fatalf("advanced refused a strict improvement: got %s", got.Name())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, metrics.SLDwA{}, SimpleDecider{}); err == nil {
		t.Fatal("empty policy list accepted")
	}
	if _, err := New([]policy.Policy{policy.FCFS{}, policy.FCFS{}}, metrics.SLDwA{}, SimpleDecider{}); err == nil {
		t.Fatal("duplicate policies accepted")
	}
	if _, err := New(policy.Standard(), nil, SimpleDecider{}); err == nil {
		t.Fatal("nil metric accepted")
	}
	if _, err := New(policy.Standard(), metrics.SLDwA{}, nil); err == nil {
		t.Fatal("nil decider accepted")
	}
	s, err := New(policy.Standard(), metrics.SLDwA{}, SimpleDecider{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Current().Name() != "FCFS" {
		t.Fatalf("initial policy %s, want FCFS", s.Current().Name())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(nil, metrics.SLDwA{}, SimpleDecider{})
}

func TestStepSwitchesToSJF(t *testing.T) {
	// Saturated 2-proc machine with one huge and three tiny jobs: SJF has
	// a far better SLDwA than FCFS, so the first step must switch.
	s := MustNew(policy.Standard(), metrics.SLDwA{}, SimpleDecider{})
	base := machine.New(2, 0)
	waiting := []*job.Job{
		j(1, 0, 2, 100000), j(2, 1, 2, 10), j(3, 2, 2, 10), j(4, 3, 2, 10),
	}
	res, err := s.Step(10, base, waiting)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chosen.Name() != "SJF" || !res.Switched {
		t.Fatalf("chose %s (switched=%v), want SJF switch", res.Chosen.Name(), res.Switched)
	}
	if s.Current().Name() != "SJF" || s.Switches() != 1 || s.Steps() != 1 {
		t.Fatalf("scheduler state wrong: current=%s switches=%d steps=%d",
			s.Current().Name(), s.Switches(), s.Steps())
	}
	if res.Schedule.Policy != "SJF" {
		t.Fatalf("result schedule from %s, want SJF", res.Schedule.Policy)
	}
	if res.Best().Value != (metrics.SLDwA{}).Eval(res.Schedule) {
		t.Fatal("Best() does not match chosen schedule value")
	}
}

func TestStepEmptyQueue(t *testing.T) {
	s := MustNew(policy.Standard(), metrics.SLDwA{}, AdvancedDecider{})
	base := machine.New(4, 0)
	res, err := s.Step(0, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	// All values are 0; advanced decider stays with FCFS.
	if res.Chosen.Name() != "FCFS" || res.Switched {
		t.Fatalf("empty-queue step switched to %s", res.Chosen.Name())
	}
}

func TestStepErrorPropagates(t *testing.T) {
	s := MustNew(policy.Standard(), metrics.SLDwA{}, SimpleDecider{})
	base := machine.New(2, 0)
	if _, err := s.Step(0, base, []*job.Job{j(1, 0, 5, 10)}); err == nil {
		t.Fatal("over-wide job did not error")
	}
}

func TestReschedule(t *testing.T) {
	s := MustNew([]policy.Policy{policy.LJF{}}, metrics.SLDwA{}, SimpleDecider{})
	base := machine.New(4, 0)
	sch, err := s.Reschedule(5, base, []*job.Job{j(1, 0, 2, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if sch.Policy != "LJF" || s.Steps() != 0 {
		t.Fatalf("Reschedule used %s or counted a step (%d)", sch.Policy, s.Steps())
	}
}

// brokenPolicy panics as soon as the builder orders the queue.
type brokenPolicy struct{}

func (brokenPolicy) Name() string            { return "BROKEN" }
func (brokenPolicy) Less(_, _ *job.Job) bool { panic("broken ordering") }

// A policy that panics mid-build is dropped from the step, and the build
// scratch the scheduler reuses afterwards gives the other policies the
// schedules a scheduler without the broken policy builds, step after step.
func TestStepContainsPanickingPolicy(t *testing.T) {
	base := machine.New(8, 0)
	base.Reserve(0, 100, 3)
	waiting := []*job.Job{j(1, 0, 4, 50), j(2, 0, 6, 20), j(3, 5, 2, 80), j(4, 8, 5, 10)}
	s := MustNew([]policy.Policy{policy.FCFS{}, brokenPolicy{}, policy.SJF{}}, metrics.SLDwA{}, AdvancedDecider{})
	ref := MustNew([]policy.Policy{policy.FCFS{}, policy.SJF{}}, metrics.SLDwA{}, AdvancedDecider{})
	for step := int64(10); step < 13; step++ {
		got, err := s.Step(step, base, waiting)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Step(step, base, waiting)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Evals) != len(want.Evals) || got.Chosen.Name() != want.Chosen.Name() {
			t.Fatalf("step %d: %d evals choosing %s, want %d choosing %s",
				step, len(got.Evals), got.Chosen.Name(), len(want.Evals), want.Chosen.Name())
		}
		for i, e := range got.Evals {
			if !slices.Equal(e.Schedule.Entries, want.Evals[i].Schedule.Entries) {
				t.Fatalf("step %d %s: %v, want %v", step, e.Policy.Name(),
					e.Schedule.Entries, want.Evals[i].Schedule.Entries)
			}
		}
	}
}

// Property: the decider always returns one of the evaluated policies, the
// chosen value is never beaten by any other evaluation, and the advanced
// decider never switches without a strict improvement over the old policy.
func TestDeciderProperties(t *testing.T) {
	m := metrics.SLDwA{}
	ps := policy.Standard()
	f := func(a, b, c uint16, oldIdx uint8) bool {
		vals := []float64{float64(a % 5), float64(b % 5), float64(c % 5)}
		old := ps[int(oldIdx)%3]
		for _, d := range []Decider{SimpleDecider{}, AdvancedDecider{}} {
			got := d.Decide(m, old, evalsWith(vals...))
			found := -1
			for i, p := range ps {
				if p.Name() == got.Name() {
					found = i
				}
			}
			if found < 0 {
				return false
			}
			for _, v := range vals {
				if metrics.Better(m, v, vals[found]) {
					return false // chosen policy was beaten
				}
			}
		}
		adv := (AdvancedDecider{}).Decide(m, old, evalsWith(vals...))
		if adv.Name() != old.Name() {
			var oldVal, advVal float64
			for i, p := range ps {
				if p.Name() == old.Name() {
					oldVal = vals[i]
				}
				if p.Name() == adv.Name() {
					advVal = vals[i]
				}
			}
			if !metrics.Better(m, advVal, oldVal) {
				return false // switched without strict improvement
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSelfTuningStep25 measures one full self-tuning step (three
// policy schedules + decision) with 25 waiting jobs — the paper reports
// < 10 ms for this on 2004 hardware.
func BenchmarkSelfTuningStep25(b *testing.B) {
	r := stats.NewRand(7)
	base := machine.New(430, 0)
	var waiting []*job.Job
	for k := 0; k < 25; k++ {
		waiting = append(waiting, j(k+1, int64(r.Intn(3600)),
			r.Intn(64)+1, int64(r.Intn(14400)+60)))
	}
	s := MustNew(policy.Standard(), metrics.SLDwA{}, AdvancedDecider{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(3600, base, waiting); err != nil {
			b.Fatal(err)
		}
	}
}

func TestThresholdDeciderDamping(t *testing.T) {
	m := metrics.SLDwA{}
	d := ThresholdDecider{Threshold: 0.10}
	// 5 % improvement: below the 10 % threshold -> stay with old (FCFS).
	got := d.Decide(m, policy.FCFS{}, evalsWith(1.00, 0.95, 1.2))
	if got.Name() != "FCFS" {
		t.Fatalf("switched on a 5%% improvement: %s", got.Name())
	}
	// 20 % improvement: switch.
	got = d.Decide(m, policy.FCFS{}, evalsWith(1.00, 0.80, 1.2))
	if got.Name() != "SJF" {
		t.Fatalf("did not switch on a 20%% improvement: %s", got.Name())
	}
	// Ties always stay.
	got = d.Decide(m, policy.SJF{}, evalsWith(1.0, 1.0, 1.0))
	if got.Name() != "SJF" {
		t.Fatalf("tie did not stay: %s", got.Name())
	}
}

func TestThresholdZeroMatchesAdvanced(t *testing.T) {
	m := metrics.SLDwA{}
	ps := policy.Standard()
	f := func(a, b, c uint16, oldIdx uint8) bool {
		vals := []float64{float64(a%7) + 1, float64(b%7) + 1, float64(c%7) + 1}
		old := ps[int(oldIdx)%3]
		th := (ThresholdDecider{Threshold: 0}).Decide(m, old, evalsWith(vals...))
		adv := (AdvancedDecider{}).Decide(m, old, evalsWith(vals...))
		return th.Name() == adv.Name()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdDeciderMaximizeMetric(t *testing.T) {
	m := metrics.Utilization{}
	d := ThresholdDecider{Threshold: 0.10}
	// Utilization 0.50 -> 0.52 is only 4 %: stay.
	got := d.Decide(m, policy.FCFS{}, evalsWith(0.50, 0.52, 0.1))
	if got.Name() != "FCFS" {
		t.Fatalf("switched on 4%% utilization gain: %s", got.Name())
	}
	// 0.50 -> 0.60 is 20 %: switch.
	got = d.Decide(m, policy.FCFS{}, evalsWith(0.50, 0.60, 0.1))
	if got.Name() != "SJF" {
		t.Fatalf("did not switch on 20%% utilization gain: %s", got.Name())
	}
}

func TestThresholdDeciderReducesSwitches(t *testing.T) {
	// On a noisy workload the damped decider must switch at most as often
	// as the advanced one.
	r := stats.NewRand(31)
	base := machine.New(8, 0)
	damped := MustNew(policy.Standard(), metrics.SLDwA{}, ThresholdDecider{Threshold: 0.25})
	eager := MustNew(policy.Standard(), metrics.SLDwA{}, AdvancedDecider{})
	for step := 0; step < 60; step++ {
		var waiting []*job.Job
		for k := 0; k < r.Intn(6)+2; k++ {
			waiting = append(waiting, j(step*100+k+1, int64(step),
				r.Intn(8)+1, int64(r.Intn(400)+10)))
		}
		if _, err := damped.Step(int64(step), base, waiting); err != nil {
			t.Fatal(err)
		}
		if _, err := eager.Step(int64(step), base, waiting); err != nil {
			t.Fatal(err)
		}
	}
	if damped.Switches() > eager.Switches() {
		t.Fatalf("damped decider switched more (%d) than advanced (%d)",
			damped.Switches(), eager.Switches())
	}
}
