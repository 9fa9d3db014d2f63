// Command traceinfo summarizes a workload trace (SWF file or synthetic):
// job counts, interarrival statistics, width/runtime/estimate
// distributions and over-estimation factors — the characteristics the
// paper's workload arguments rest on ("some users primarily submit
// parallel and long running jobs, while others submit hundreds of short
// and sequential jobs").
//
// With -jsonl the command instead summarizes a schedd structured event
// trace: per-request submit → batched → planned → published latency
// breakdowns reconstructed from the daemon's trace IDs, plus a
// slowest-replan report from the span tree.
//
// Usage:
//
//	traceinfo -trace ctc.swf
//	traceinfo -synthetic 5000 -seed 3
//	traceinfo -jsonl schedd.jsonl -top 20
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/stats"
	"repro/internal/table"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "SWF trace file")
		synthetic = flag.Int("synthetic", 5000, "synthesize this many CTC-like jobs when no trace is given")
		seed      = flag.Uint64("seed", 1, "seed for synthetic workloads")
		jsonlPath = flag.String("jsonl", "", "summarize a schedd JSONL event trace instead of a workload")
		topN      = flag.Int("top", 10, "rows in the slowest-requests table (with -jsonl; 0 = all)")
	)
	flag.Parse()

	if *jsonlPath != "" {
		if err := runJSONL(os.Stdout, *jsonlPath, *topN); err != nil {
			fmt.Fprintln(os.Stderr, "traceinfo:", err)
			os.Exit(1)
		}
		return
	}

	tr, err := cliutil.LoadTrace("traceinfo", *tracePath, *synthetic, *seed, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceinfo:", err)
		os.Exit(1)
	}
	if err := tr.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "traceinfo:", err)
		os.Exit(1)
	}

	fmt.Printf("trace: %d jobs, %d processors, note %q\n",
		len(tr.Jobs), tr.Processors, tr.Note)
	fmt.Printf("span: %d s, mean interarrival %.1f s\n\n",
		tr.Jobs[len(tr.Jobs)-1].Submit-tr.Jobs[0].Submit, tr.MeanInterarrival())

	var widths, runs, ests, factors []float64
	users := map[int]int{}
	for _, j := range tr.Jobs {
		widths = append(widths, float64(j.Width))
		runs = append(runs, float64(j.Runtime))
		ests = append(ests, float64(j.Estimate))
		factors = append(factors, float64(j.Estimate)/float64(j.Runtime))
		users[j.User]++
	}

	t := table.New("quantity", "mean", "std", "median", "p90", "min", "max")
	for _, row := range []struct {
		name string
		xs   []float64
	}{
		{"width [procs]", widths},
		{"runtime [s]", runs},
		{"estimate [s]", ests},
		{"estimate/runtime", factors},
	} {
		s := stats.Summarize(row.xs)
		t.Row(row.name, f1(s.Mean), f1(s.Std), f1(s.Median), f1(s.P90), f1(s.Min), f1(s.Max))
	}
	fmt.Print(t.String())

	// Width histogram (powers of two, the shape HPC workloads share).
	h := stats.NewHistogram(2, 4, 8, 16, 32, 64, 128, 256)
	for _, w := range widths {
		h.Add(w)
	}
	wt := table.New("width bucket", "jobs", "share")
	labels := []string{"1", "2-3", "4-7", "8-15", "16-31", "32-63", "64-127", "128-255", ">=256"}
	for i, l := range labels {
		wt.Row(l, h.Counts[i], fmt.Sprintf("%.1f%%", 100*h.Fraction(i)))
	}
	fmt.Println()
	fmt.Print(wt.String())

	fmt.Printf("\nusers: %d distinct; busiest submitted %d jobs\n", len(users), maxCount(users))
	fmt.Printf("total estimated area: %d processor-seconds\n", tr.TotalArea())
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

func maxCount(m map[int]int) int {
	best := 0
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}
