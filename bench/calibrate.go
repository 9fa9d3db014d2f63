package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// calibrate runs every listed workload repeat times in each of two sets,
// as separate processes like the regression gate's runs, with seeds
// seed … seed+repeat-1 and the sets interleaved (A B A B …). It prints per
// metric each set's median and IQR as a share of the median, and how far
// set B's median is from set A's — the numbers the bounds in
// BENCHMARK.json come from.
func calibrate(names string, seed uint64, seconds float64, traced bool, repeat int, extra []string) error {
	const sets = 2
	list := strings.Split(names, ",")
	if names == "all" {
		list = workloadNames()
	}
	for _, n := range list {
		if _, ok := workloads[n]; !ok {
			return fmt.Errorf("unknown workload %q", n)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[workload][set][metric] over the runs.
	values := map[string][]map[string][]float64{}
	units := map[string]string{}
	for _, n := range list {
		values[n] = make([]map[string][]float64, sets)
		for s := range values[n] {
			values[n][s] = map[string][]float64{}
		}
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	var bad []string
	for i := 0; i < repeat; i++ {
		for s := 0; s < sets; s++ {
			for _, n := range list {
				args := []string{"-workload", n, "-seed", strconv.FormatUint(seed+uint64(i), 10),
					"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", trace}
				args = append(args, extra...)
				var stderr bytes.Buffer
				cmd := exec.Command(self, args...)
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %v\n%s", n, seed+uint64(i), err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res resultJSON
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return fmt.Errorf("%s seed %d: bad result line: %v", n, seed+uint64(i), err)
				}
				fmt.Fprintf(os.Stderr, "calibrate: run %d set %c %s seed %d: %s\n", i+1, 'A'+s, n, seed+uint64(i), lines[len(lines)-1])
				if !res.Correct || res.Failed > 0 {
					// Keep going: the table still shows the other runs,
					// and the summary below reports the bad ones.
					bad = append(bad, fmt.Sprintf("%s seed %d: correct=%v failed=%d", n, seed+uint64(i), res.Correct, res.Failed))
					fmt.Fprintf(os.Stderr, "%s", stderr.String())
					continue
				}
				for m, v := range res.Metrics {
					values[n][s][m] = append(values[n][s][m], v.Value)
					units[m] = v.Unit
				}
			}
		}
	}
	fmt.Printf("| workload | metric | unit |")
	for s := 0; s < sets; s++ {
		fmt.Printf(" set %c median | %c IQR/median |", 'A'+s, 'A'+s)
	}
	fmt.Printf(" B/A − 1 |\n|---|---|---|---|---|---|---|---|\n")
	for _, n := range list {
		var metrics []string
		for m := range values[n][0] {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			fmt.Printf("| %s | %s | %s |", n, m, units[m])
			var meds []float64
			for s := 0; s < sets; s++ {
				v := values[n][s][m]
				q1, q3 := quartiles(v)
				med := median(v)
				meds = append(meds, med)
				fmt.Printf(" %.4g | %.3f |", med, frac(q3-q1, med))
			}
			fmt.Printf(" %+.3f |\n", frac(meds[1], meds[0])-1)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d runs failed their checks:\n%s", len(bad), strings.Join(bad, "\n"))
	}
	return nil
}
