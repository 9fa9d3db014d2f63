// Command milp is a standalone LP/MILP solver over MPS and CPLEX LP
// files — the from-scratch CPLEX stand-in of this repository exposed as a
// tool. It reads the problem, reduces it with the lp presolve pass
// (fixed/empty columns, empty/singleton rows; disable with
// -presolve=false), minimizes the reduction, lifts the solution back to
// the original coordinates, and prints the status, objective and nonzero
// solution values.
//
// Usage:
//
//	milp -mps model.mps [-nodes 100000] [-timeout 60s] [-gap 0.01]
//	milp -lp model.lp          # e.g. a file written by optsched -lp
//	milp -lp model.lp -trace solve.jsonl -verbose -cpuprofile cpu.pprof
//
// Observability: -trace writes the solver's structured JSONL events
// (mip.solve span, mip.incumbent, mip.bound, mip.cuts), -verbose prints
// solve-progress lines on stderr, and -cpuprofile/-memprofile write
// pprof profiles.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/cliutil"
	"repro/internal/lp"
	"repro/internal/mip"
	"repro/internal/obs"
	"repro/internal/table"
)

func main() {
	var (
		mpsPath    = flag.String("mps", "", "MPS input file")
		lpPath     = flag.String("lp", "", "CPLEX LP input file")
		nodes      = flag.Int("nodes", 1<<20, "branch-and-bound node limit")
		timeout    = flag.Duration("timeout", 5*time.Minute, "time limit")
		gap        = flag.Float64("gap", 0, "relative MIP gap (0 = prove optimality)")
		maxIter    = flag.Int("iters", 200000, "simplex iteration limit per LP")
		workers    = flag.Int("workers", 0, "parallel branch-and-bound workers (0 = 1, serial and deterministic)")
		presolve   = flag.Bool("presolve", true, "reduce the problem (fixed/empty columns, empty/singleton rows) before solving and lift the solution back")
		quiet      = flag.Bool("q", false, "print only status and objective")
		traceOut   = flag.String("trace", "", "write a structured JSONL event trace to this file")
		verbose    = flag.Bool("verbose", false, "print solve-progress lines and counters on stderr")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file")
		denseBasis = flag.Bool("dense-basis", false, "use the dense explicit basis inverse instead of the sparse LU factorization (differential debugging)")
	)
	flag.Parse()
	if (*mpsPath == "") == (*lpPath == "") {
		fmt.Fprintln(os.Stderr, "milp: exactly one of -mps or -lp is required")
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fail(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
			f.Close()
		}
	}()
	path := *mpsPath
	if path == "" {
		path = *lpPath
	}
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	var (
		p    *lp.Problem
		ints []int
	)
	if *mpsPath != "" {
		p, ints, err = lp.ReadMPS(f)
	} else {
		p, ints, err = lp.ReadLP(f)
	}
	f.Close()
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "milp: %d columns (%d integer), %d rows, %d nonzeros\n",
		p.NumVariables(), len(ints), p.NumConstraints(), p.NumNonZeros())

	// The problem the solver sees: with -presolve (the default) the
	// reduction of p, whose solution Postsolve lifts back afterwards.
	solveP, solveInts := p, ints
	var pr *lp.Presolved
	if *presolve {
		red, status := lp.Presolve(p)
		if status != lp.Optimal {
			fmt.Printf("status:    %v (decided by presolve)\n", status)
			if status == lp.Infeasible {
				os.Exit(1)
			}
			return
		}
		// An integer column fixed to a fractional value by an equality
		// singleton means the original MIP has no integer solution there.
		for _, j := range ints {
			if v, ok := red.FixedValue(j); ok && math.Abs(v-math.Round(v)) > 1e-9 {
				fmt.Printf("status:    %v (presolve fixed integer column %s to %g)\n",
					lp.Infeasible, p.Name(j), v)
				os.Exit(1)
			}
		}
		solveInts = nil
		for _, rj := range red.MapCols(ints) {
			if rj >= 0 {
				solveInts = append(solveInts, rj)
			}
		}
		solveP, pr = red.Reduced, red
		fmt.Fprintf(os.Stderr, "milp: presolve removed %d columns, %d rows in %d rounds -> %d columns, %d rows\n",
			red.Stats.ColsFixed, red.Stats.RowsRemoved, red.Stats.Rounds,
			solveP.NumVariables(), solveP.NumConstraints())
	}

	start := time.Now()
	if len(ints) == 0 {
		res, err := solveP.Solve(lp.Options{MaxIters: *maxIter, DenseBasis: *denseBasis})
		if err != nil {
			fail(err)
		}
		if pr != nil && res.Status == lp.Optimal {
			if res, err = pr.Postsolve(p, res); err != nil {
				fail(err)
			}
		}
		fmt.Printf("status:    %v\n", res.Status)
		if res.Status == lp.Optimal {
			fmt.Printf("objective: %.10g\n", res.Objective)
		}
		fmt.Printf("iterations: %d, elapsed %v\n", res.Iterations, time.Since(start).Round(time.Millisecond))
		if !*quiet && res.Status == lp.Optimal {
			printSolution(p, res.X)
		}
		return
	}

	opts := mip.Options{
		MaxNodes:    *nodes,
		TimeLimit:   *timeout,
		RelativeGap: *gap,
		Workers:     *workers,
		LP:          lp.Options{MaxIters: *maxIter, DenseBasis: *denseBasis},
	}
	tracer, flush, err := cliutil.OpenTracer("milp", *traceOut)
	if err != nil {
		fail(err)
	}
	cliutil.ExitOnSignal(flush)
	opts.Trace = tracer
	reg := obs.NewRegistry()
	opts.Metrics = reg
	if *verbose {
		opts.Progress = func(pr mip.Progress) {
			inc := "-"
			if pr.HasIncumbent {
				inc = fmt.Sprintf("%.6g", pr.Incumbent)
			}
			fmt.Fprintf(os.Stderr, "[%8.2fs] nodes=%d open=%d lp_iters=%d bound=%.6g incumbent=%s\n",
				pr.Elapsed.Seconds(), pr.Nodes, pr.Open, pr.LPIters, pr.BestBound, inc)
		}
	}
	res, err := mip.Solve(solveP, solveInts, opts)
	flush()
	if err != nil {
		fail(err)
	}
	if pr != nil && res.X != nil {
		// Lift the incumbent to original coordinates; the recomputed
		// objective absorbs the cost of the fixed columns, and the proven
		// bound shifts by the same constant.
		lifted, perr := pr.Postsolve(p, &lp.Result{
			Status: lp.Optimal, X: res.X,
			Duals: make([]float64, solveP.NumConstraints()),
		})
		if perr != nil {
			fail(perr)
		}
		res.BestBound += lifted.Objective - res.Objective
		res.Objective, res.X = lifted.Objective, lifted.X
	}
	fmt.Printf("status:    %v\n", res.Status)
	switch res.Status {
	case mip.Optimal, mip.Feasible:
		fmt.Printf("objective: %.10g (best bound %.10g, gap %.2f%%)\n",
			res.Objective, res.BestBound, 100*res.Gap())
	}
	fmt.Print(res.Report().String())
	if *verbose {
		fmt.Fprint(os.Stderr, reg.String())
	}
	if *traceOut != "" {
		fmt.Fprintf(os.Stderr, "milp: wrote event trace %s\n", *traceOut)
	}
	if !*quiet && res.X != nil {
		printSolution(p, res.X)
	}
}

func printSolution(p *lp.Problem, x []float64) {
	t := table.New("column", "value")
	shown := 0
	for j := 0; j < p.NumVariables() && shown < 200; j++ {
		if math.Abs(x[j]) > 1e-9 {
			t.Row(p.Name(j), fmt.Sprintf("%.6g", x[j]))
			shown++
		}
	}
	fmt.Print(t.String())
	if shown == 200 {
		fmt.Println("... (truncated at 200 nonzeros)")
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "milp:", err)
	os.Exit(1)
}
