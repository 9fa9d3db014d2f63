package sim

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/job"
	"repro/internal/mip"
	"repro/internal/obs"
	"repro/internal/solvepipe"
)

// wholeMachineTrace builds identical whole-machine jobs: every feasible
// schedule serializes them, so any two runs — ILP-driven, policy-driven,
// or a mix — produce the exact same start times and therefore the same
// SLDwA. That makes the fault-free run a byte-exact oracle for the
// faulted run's non-degraded steps.
func wholeMachineTrace(n int, procs int) *job.Trace {
	jobs := make([]*job.Job, n)
	for i := range jobs {
		jobs[i] = &job.Job{
			ID: i + 1, Submit: int64(i) * 60, Width: procs,
			Runtime: 100, Estimate: 100,
		}
	}
	return trace(procs, jobs...)
}

func ilpConfig(hook func(solvepipe.SolveFunc) solvepipe.SolveFunc) *ILPConfig {
	return &ILPConfig{
		StepConfig: solvepipe.StepConfig{Pipe: solvepipe.Config{
			Budget:     2 * time.Second,
			Retries:    0, // one solve call per step: call index == step index
			FixedScale: 50,
			MIP:        mip.Options{MaxNodes: 2000},
			Hook:       hook,
		}},
		Fallback: true,
	}
}

// End-to-end acceptance: a run with 20% injected solve faults (timeouts
// + panics + infeasible) completes, degrades exactly the faulted steps,
// emits solve.fallback events and retry/fallback counters, and matches
// the fault-free run's SLDwA.
func TestILPRunWithInjectedFaults(t *testing.T) {
	const n = 24
	// Fault-free ILP-driven oracle run.
	clean, err := mustSim(t, wholeMachineTrace(n, 4), ilpConfig(nil), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.ILPSteps == 0 || clean.ILPFallbacks != 0 || len(clean.Failures) != 0 {
		t.Fatalf("clean run: steps=%d fallbacks=%d failures=%d",
			clean.ILPSteps, clean.ILPFallbacks, len(clean.Failures))
	}

	// Faulted run: seeded 20% probability over all three failure kinds.
	inj := faultinject.New(faultinject.NewProbability(25, 0.20))
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	var stepTimes []int64
	var fallbackSteps []int64
	onStep := func(sc *StepContext) {
		stepTimes = append(stepTimes, sc.Now)
		if sc.ILP != nil && sc.ILP.Fallback {
			fallbackSteps = append(fallbackSteps, sc.Now)
		}
	}
	faulted, err := mustSim(t, wholeMachineTrace(n, 4), ilpConfig(inj.Hook),
		&Config{Trace: obs.NewTracer(&buf), Metrics: reg, OnStep: onStep}, nil)
	if err != nil {
		t.Fatalf("faulted run died: %v", err)
	}

	// The run completed every job despite the faults.
	if len(faulted.Completed) != n {
		t.Fatalf("faulted run completed %d/%d jobs", len(faulted.Completed), n)
	}
	injected := inj.Injected()
	if len(injected) == 0 {
		t.Fatal("seed injected no faults; pick another seed")
	}
	kinds := map[faultinject.Kind]int{}
	for _, r := range injected {
		kinds[r.Kind]++
	}
	for _, k := range []faultinject.Kind{faultinject.Timeout, faultinject.Panic, faultinject.Infeasible} {
		if kinds[k] == 0 {
			t.Fatalf("seed injected no %v faults (got %v); pick another seed", k, kinds)
		}
	}

	// Degradation happened on exactly the faulted steps: with zero
	// retries, solve call i belongs to step i, so the injected call
	// indices map one-to-one onto the recorded fallback steps.
	if faulted.ILPSteps != len(stepTimes) || faulted.ILPSteps != n {
		t.Fatalf("ILP steps %d, observed %d, submissions %d", faulted.ILPSteps, len(stepTimes), n)
	}
	if faulted.ILPFallbacks != len(injected) {
		t.Fatalf("%d fallbacks, %d injected faults", faulted.ILPFallbacks, len(injected))
	}
	if len(faulted.Failures) != len(injected) {
		t.Fatalf("%d failure records, %d injected faults", len(faulted.Failures), len(injected))
	}
	wantKind := map[faultinject.Kind]solvepipe.FailureKind{
		faultinject.Timeout:    solvepipe.FailTimeout,
		faultinject.Panic:      solvepipe.FailPanic,
		faultinject.Infeasible: solvepipe.FailInfeasible,
	}
	for i, rec := range injected {
		f := faulted.Failures[i]
		if want := stepTimes[rec.Call-1]; f.Time != want {
			t.Errorf("failure %d at step time %d, want %d (call %d)", i, f.Time, want, rec.Call)
		}
		if f.Kind != wantKind[rec.Kind] {
			t.Errorf("failure %d kind %v, want %v", i, f.Kind, wantKind[rec.Kind])
		}
		if fallbackSteps[i] != f.Time {
			t.Errorf("OnStep fallback %d at %d, want %d", i, fallbackSteps[i], f.Time)
		}
	}
	if len(fallbackSteps) != len(injected) {
		t.Fatalf("OnStep saw %d fallbacks, want %d", len(fallbackSteps), len(injected))
	}

	// Observability: one solve.fallback event per degraded step and the
	// mip.fallbacks/mip.retries counters.
	if got := strings.Count(buf.String(), `"ev":"solve.fallback"`); got != len(injected) {
		t.Errorf("%d solve.fallback events, want %d", got, len(injected))
	}
	if got := reg.Counter("mip.fallbacks").Value(); got != int64(len(injected)) {
		t.Errorf("mip.fallbacks = %d, want %d", got, len(injected))
	}
	if got := reg.Counter("mip.retries").Value(); got != 0 {
		t.Errorf("mip.retries = %d, want 0 with Retries=0", got)
	}

	// Identical-job serialization: degraded steps adopt the policy
	// schedule, which is start-time-identical to the ILP schedule, so
	// the faulted run's SLDwA must equal the fault-free oracle's.
	if c, f := clean.SlowdownWeightedByArea(), faulted.SlowdownWeightedByArea(); c != f {
		t.Errorf("SLDwA diverged: clean %v, faulted %v", c, f)
	}
	if clean.Makespan != faulted.Makespan {
		t.Errorf("makespan diverged: clean %d, faulted %d", clean.Makespan, faulted.Makespan)
	}
}

// The parallel branch and bound under injected faults must degrade
// exactly like the serial solver: the worker pool changes the node
// exploration order, not the retry-ladder or fallback semantics. Same
// seeded fault pattern as the serial test, same oracle equality.
func TestILPRunWithInjectedFaultsParallelSolver(t *testing.T) {
	const n = 24
	clean, err := mustSim(t, wholeMachineTrace(n, 4), ilpConfig(nil), nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	inj := faultinject.New(faultinject.NewProbability(25, 0.20))
	ilp := ilpConfig(inj.Hook)
	ilp.Pipe.MIP.Workers = 4
	reg := obs.NewRegistry()
	faulted, err := mustSim(t, wholeMachineTrace(n, 4), ilp, &Config{Metrics: reg}, nil)
	if err != nil {
		t.Fatalf("faulted parallel run died: %v", err)
	}

	if len(faulted.Completed) != n {
		t.Fatalf("faulted parallel run completed %d/%d jobs", len(faulted.Completed), n)
	}
	injected := inj.Injected()
	if len(injected) == 0 {
		t.Fatal("seed injected no faults; pick another seed")
	}
	if faulted.ILPFallbacks != len(injected) {
		t.Fatalf("%d fallbacks, %d injected faults", faulted.ILPFallbacks, len(injected))
	}
	if len(faulted.Failures) != len(injected) {
		t.Fatalf("%d failure records, %d injected faults", len(faulted.Failures), len(injected))
	}
	// Non-faulted steps solved with the 4-worker pool still serialize the
	// whole-machine jobs, so the SLDwA matches the serial fault-free run.
	if c, f := clean.SlowdownWeightedByArea(), faulted.SlowdownWeightedByArea(); c != f {
		t.Errorf("SLDwA diverged: clean serial %v, faulted parallel %v", c, f)
	}
	if clean.Makespan != faulted.Makespan {
		t.Errorf("makespan diverged: clean %d, faulted parallel %d", clean.Makespan, faulted.Makespan)
	}
	if got := reg.Counter("mip.fallbacks").Value(); got != int64(len(injected)) {
		t.Errorf("mip.fallbacks = %d, want %d", got, len(injected))
	}
}

// mustSim builds and runs a simulation with the standard scheduler.
func mustSim(t *testing.T, tr *job.Trace, ilp *ILPConfig, base *Config, _ any) (*Result, error) {
	t.Helper()
	cfg := DefaultConfig()
	if base != nil {
		cfg = *base
		cfg.ReplanOnCompletion = true
	}
	cfg.ILP = ilp
	s, err := New(tr, standard(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

// Fallback=false propagates the first solve failure as a run error —
// the strict mode for experiments that must not degrade.
func TestILPRunStrictModeAborts(t *testing.T) {
	inj := faultinject.New(faultinject.NthCall{N: 3, Kind: faultinject.Timeout})
	ilp := ilpConfig(inj.Hook)
	ilp.Fallback = false
	_, err := mustSim(t, wholeMachineTrace(8, 4), ilp, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "solve pipeline failed") {
		t.Fatalf("strict run error = %v, want pipeline failure", err)
	}
}
