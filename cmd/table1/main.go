// Command table1 regenerates the paper's Table 1 ("Examples of CPLEX
// problem sizes, the quality, and the compute time"): it simulates a
// CTC-like trace with the self-tuning dynP scheduler, and at sampled
// self-tuning steps solves the time-scaled time-indexed ILP, compacts the
// solution, and reports per-step problem size, time scale, quality,
// performance loss and compute time, plus the averages row.
//
// Usage:
//
//	table1 -jobs 300 -seed 7 -sample 5 -minjobs 5 -maxjobs 25 -nodes 2000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("table1", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nJobs   = fs.Int("jobs", 300, "trace length (synthetic CTC-like jobs)")
		seed    = fs.Uint64("seed", 7, "workload seed")
		sample  = fs.Int("sample", 5, "compare every k-th eligible step")
		minJobs = fs.Int("minjobs", 5, "minimum waiting jobs for a comparison")
		maxJobs = fs.Int("maxjobs", 25, "maximum waiting jobs for a comparison (0 = unlimited)")
		nodes   = fs.Int("nodes", 2000, "branch-and-bound node limit per step")
		timeout = fs.Duration("timeout", 20*time.Second, "branch-and-bound time limit per step")
		workers = fs.Int("workers", 0, "branch-and-bound workers (0 = 1, serial/deterministic)")
		scale   = fs.Int64("scale", 0, "fixed time scale in seconds (0 = Eq. 6)")
		jsonOut = fs.String("json", "", "also write the rows as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	tr, err := workload.Generate(workload.CTC(), *nJobs, *seed)
	if err != nil {
		return err
	}
	cmp := core.NewComparator(*nodes)
	cmp.MIP.TimeLimit = *timeout
	cmp.MIP.Workers = *workers
	cmp.FixedScale = *scale
	st := &core.Study{
		Comparator:  cmp,
		SampleEvery: *sample,
		MinJobs:     *minJobs,
		MaxJobs:     *maxJobs,
	}
	res, err := core.RunStudy(tr, st, sim.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "simulated %d jobs, %d self-tuning steps, %d policy switches\n",
		len(res.Completed), res.Steps, res.Switches)
	if len(st.Rows) == 0 {
		return fmt.Errorf("no eligible steps (queue never reached %d jobs); try more jobs or -minjobs 1", *minJobs)
	}
	fmt.Fprintf(stdout, "compared %d steps (%d errors)\n\n", len(st.Rows), st.Errors)
	fmt.Fprint(stdout, core.FormatTable1(st.Rows, st.Averages()))
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := st.WriteJSON(f); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "table1: wrote %s\n", *jsonOut)
	}
	return nil
}
