package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/job"
	"repro/internal/schedule"
	"repro/internal/stats"
)

func sched() *schedule.Schedule {
	// Two jobs, planned at now=0 on a 4-proc machine:
	//  job 1: submit 0,  width 1, est 100, start 0   -> resp 100, wait 0,  sld 1
	//  job 2: submit 50, width 3, est 50,  start 150 -> resp 150, wait 100, sld 3
	return &schedule.Schedule{Policy: "T", Now: 0, Machine: 4, Entries: []schedule.Entry{
		{Job: &job.Job{ID: 1, Submit: 0, Width: 1, Estimate: 100, Runtime: 100}, Start: 0},
		{Job: &job.Job{ID: 2, Submit: 50, Width: 3, Estimate: 50, Runtime: 50}, Start: 150},
	}}
}

func TestARTValues(t *testing.T) {
	s := sched()
	if got := (ART{}).Eval(s); got != 125 {
		t.Fatalf("ART = %v, want 125", got)
	}
	// ARTwW = (100*1 + 150*3) / 4 = 550/4
	if got := (ARTwW{}).Eval(s); got != 550.0/4.0 {
		t.Fatalf("ARTwW = %v, want 137.5", got)
	}
	if got := (AWT{}).Eval(s); got != 50 {
		t.Fatalf("AWT = %v, want 50", got)
	}
}

func TestSlowdownValues(t *testing.T) {
	s := sched()
	if got := (SLD{}).Eval(s); got != 2 {
		t.Fatalf("SLD = %v, want 2", got)
	}
	// areas: 100 and 150; SLDwA = (1*100 + 3*150)/250 = 550/250 = 2.2
	if got := (SLDwA{}).Eval(s); math.Abs(got-2.2) > 1e-12 {
		t.Fatalf("SLDwA = %v, want 2.2", got)
	}
}

func TestUtilizationAndMakespan(t *testing.T) {
	s := sched()
	// makespan = 200; area = 100 + 150 = 250; util = 250 / (4*200)
	if got := (Makespan{}).Eval(s); got != 200 {
		t.Fatalf("CMAX = %v, want 200", got)
	}
	if got := (Utilization{}).Eval(s); math.Abs(got-250.0/800.0) > 1e-12 {
		t.Fatalf("UTIL = %v, want 0.3125", got)
	}
}

func TestEmptySchedules(t *testing.T) {
	empty := &schedule.Schedule{Now: 7, Machine: 4}
	for _, m := range All() {
		if got := m.Eval(empty); got != 0 {
			t.Fatalf("%s on empty schedule = %v, want 0", m.Name(), got)
		}
	}
}

func TestBetter(t *testing.T) {
	if !Better(ART{}, 1, 2) || Better(ART{}, 2, 1) {
		t.Fatal("minimize direction broken")
	}
	if !Better(Utilization{}, 0.9, 0.5) || Better(Utilization{}, 0.5, 0.9) {
		t.Fatal("maximize direction broken")
	}
	if Better(ART{}, math.NaN(), 1) {
		t.Fatal("NaN beat a number")
	}
	if !Better(ART{}, 1, math.NaN()) {
		t.Fatal("number lost to NaN")
	}
}

func TestByName(t *testing.T) {
	for _, m := range All() {
		got, err := ByName(m.Name())
		if err != nil || got.Name() != m.Name() {
			t.Fatalf("ByName(%q) = %v, %v", m.Name(), got, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

func TestQualityAndLoss(t *testing.T) {
	// Minimize: optimal 99, policy 100 -> quality 0.99, loss 1 %.
	q := Quality(SLDwA{}, 99, 100)
	if math.Abs(q-0.99) > 1e-12 {
		t.Fatalf("quality = %v, want 0.99", q)
	}
	if loss := LossPercent(q); math.Abs(loss-1.0) > 1e-9 {
		t.Fatalf("loss = %v, want 1", loss)
	}
	// Policy better than time-scaled optimal: negative loss.
	q = Quality(SLDwA{}, 102, 100)
	if LossPercent(q) >= 0 {
		t.Fatalf("loss = %v, want negative", LossPercent(q))
	}
	// Maximize metric: optimal util 0.8 vs policy 0.4 -> quality 0.5.
	q = Quality(Utilization{}, 0.8, 0.4)
	if math.Abs(q-0.5) > 1e-12 {
		t.Fatalf("maximize quality = %v, want 0.5", q)
	}
	// Degenerate zeros.
	if q := Quality(ART{}, 0, 0); q != 1 {
		t.Fatalf("0/0 quality = %v, want 1", q)
	}
	if q := Quality(ART{}, 5, 0); !math.IsInf(q, 1) {
		t.Fatalf("x/0 quality = %v, want +Inf", q)
	}
}

func TestDirectionString(t *testing.T) {
	if Minimize.String() != "minimize" || Maximize.String() != "maximize" {
		t.Fatal("Direction.String broken")
	}
}

// Property: for any schedule, SLD >= 1 is not guaranteed per-average, but
// every metric must be non-negative and finite, and delaying every start
// by a constant never improves any minimize metric and never degrades the
// set of maximize metrics' direction semantics.
func TestMetricMonotonicityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		n := r.Intn(8) + 1
		s := &schedule.Schedule{Now: 0, Machine: 16}
		for i := 0; i < n; i++ {
			jb := &job.Job{ID: i + 1, Submit: int64(r.Intn(100)),
				Width: r.Intn(8) + 1, Estimate: int64(r.Intn(500) + 1)}
			jb.Runtime = jb.Estimate
			start := jb.Submit + int64(r.Intn(300))
			s.Entries = append(s.Entries, schedule.Entry{Job: jb, Start: start})
		}
		delayed := s.Clone()
		for i := range delayed.Entries {
			delayed.Entries[i].Start += 1000
		}
		for _, m := range All() {
			a, b := m.Eval(s), m.Eval(delayed)
			if math.IsNaN(a) || math.IsInf(a, 0) || a < 0 {
				return false
			}
			if m.Direction() == Minimize && b < a {
				return false // delay improved a minimize metric
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSLDwAProportionalToARTwW pins the identity behind experiment E9.
// Entry.Slowdown divides the response time by the estimate, so within
// one step SLDwA = Σ wᵢ·respᵢ / Σ areaᵢ and ARTwW = Σ wᵢ·respᵢ / Σ wᵢ:
// SLDwA·Σarea == ARTwW·Σwidth for every schedule of a fixed job set. The
// two metrics are proportional there, so the ILP's Eq. 2 optimum is also
// the SLDwA optimum. Each seed draws one job set and several random
// schedules of it.
func TestSLDwAProportionalToARTwW(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		r := stats.NewRand(seed)
		jobs := make([]*job.Job, r.Intn(12)+1)
		var area, width float64
		for i := range jobs {
			est := int64(r.Intn(5000) + 1)
			// Runtimes below estimates: the identity is on estimates.
			jobs[i] = &job.Job{ID: i + 1, Submit: int64(r.Intn(3600)),
				Width: r.Intn(64) + 1, Estimate: est, Runtime: int64(r.Intn(int(est))) + 1}
			area += float64(jobs[i].Area())
			width += float64(jobs[i].Width)
		}
		for k := 0; k < 5; k++ {
			s := &schedule.Schedule{Now: 3600, Machine: 64}
			for _, jb := range jobs {
				s.Entries = append(s.Entries, schedule.Entry{Job: jb, Start: 3600 + int64(r.Intn(20000))})
			}
			lhs, rhs := SLDwA{}.Eval(s)*area, ARTwW{}.Eval(s)*width
			if math.Abs(lhs-rhs) > 1e-9*math.Abs(rhs) {
				t.Fatalf("seed %d schedule %d: SLDwA·Σarea = %.12g, ARTwW·Σwidth = %.12g",
					seed, k, lhs, rhs)
			}
		}
	}
}
