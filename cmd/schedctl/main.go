// Command schedctl is the command-line client of the schedd daemon.
//
// Usage:
//
//	schedctl [-addr http://127.0.0.1:8080] <command> [flags]
//
//	schedctl submit -width 4 -estimate 3600 -runtime 1800 -source alice
//	schedctl get 17
//	schedctl schedule
//	schedctl health
//	schedctl metrics
//	schedctl metrics -prom          # Prometheus text exposition
//	schedctl metrics -prom -check   # also validate the exposition format
//	schedctl replans                # flight recorder: last N replans
//	schedctl watch -types plan-version -count 10
//	schedctl loadgen -synthetic 2000 -seed 1 -accel 2000 -sources 4
//	schedctl loadgen -swf ctc.swf -jobs 10000 -accel 5000 -json
//
// submit/get/schedule/health/metrics/replans are thin wrappers over the
// HTTP API and print the server's JSON responses. watch subscribes to
// the daemon's GET /v1/events Server-Sent Events stream and prints
// each event's JSON payload as one line (exiting after -count events);
// a dropped connection resumes automatically via Last-Event-ID, so a
// long watch is exactly-once across reconnects. loadgen replays a trace (synthetic
// CTC-like or an SWF file prefix) through internal/loadgen as an
// open-loop driver and reports throughput, submit and submit-to-plan
// latency percentiles, backpressure counts, and replan totals; -json
// emits the loadgen.Result for scripting, and -targets fans the replay
// out across several daemons round-robin.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/schedd"
	"repro/internal/wal"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "schedd base URL")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	base := strings.TrimRight(*addr, "/")
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "submit":
		err = cmdSubmit(base, args)
	case "get":
		err = cmdGet(base, args)
	case "schedule":
		err = get(base + "/v1/schedule")
	case "health":
		err = get(base + "/v1/healthz")
	case "metrics":
		err = cmdMetrics(base, args)
	case "replans":
		err = get(base + "/v1/replans")
	case "watch":
		err = cmdWatch(base, args)
	case "loadgen":
		err = cmdLoadgen(base, args)
	case "wal":
		err = cmdWAL(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: schedctl [-addr URL] <command> [flags]

commands:
  submit    submit a job (-width, -estimate, -runtime, -source, -deadline)
  get ID    show one job's state
  schedule  show the current plan snapshot
  health    show liveness and queue depth
  metrics   dump the obs metric registry (-prom for Prometheus text, -check to validate)
  replans   show the flight recorder's replan summaries
  watch     stream scheduling events over SSE (-types, -count, -timeout)
  loadgen   replay a workload and measure serving latency
  wal       inspect or verify a daemon WAL directory offline
`)
}

func cmdSubmit(base string, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	width := fs.Int("width", 1, "requested processors")
	estimate := fs.Int64("estimate", 3600, "estimated duration in seconds")
	runtime := fs.Int64("runtime", 0, "actual runtime in seconds (0 = runs to its estimate)")
	source := fs.String("source", "", "submission source label (rate-limiting key)")
	deadline := fs.Int64("deadline", 0, "start-SLO in virtual seconds: reject up front if the planned start would bust it (0 = none)")
	fs.Parse(args)
	body, _ := json.Marshal(schedd.SubmitJSON{
		Width: *width, Estimate: *estimate, Runtime: *runtime, Source: *source,
		Deadline: *deadline,
	})
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return printResponse(resp)
}

func cmdGet(base string, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: schedctl get <job-id>")
	}
	if _, err := strconv.Atoi(args[0]); err != nil {
		return fmt.Errorf("bad job id %q", args[0])
	}
	return get(base + "/v1/jobs/" + args[0])
}

func get(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return printResponse(resp)
}

// printResponse copies the server's (already indented) JSON body to
// stdout and converts non-2xx statuses into an error.
func printResponse(resp *http.Response) error {
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	os.Stdout.Write(b)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s", resp.Status)
	}
	return nil
}

// cmdMetrics dumps the registry: JSON by default, the Prometheus text
// exposition with -prom. -check additionally runs the scraped text
// through the exposition-format validator (promtool-style) and fails on
// malformed output, which is what the CI drill uses.
func cmdMetrics(base string, args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	prom := fs.Bool("prom", false, "scrape the Prometheus text exposition instead of JSON")
	check := fs.Bool("check", false, "validate the exposition format (implies -prom)")
	fs.Parse(args)
	if !*prom && !*check {
		return get(base + "/v1/metrics")
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	os.Stdout.Write(b)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s", resp.Status)
	}
	if *check {
		if err := obs.ValidateExposition(b); err != nil {
			return fmt.Errorf("malformed exposition: %w", err)
		}
		fmt.Fprintln(os.Stderr, "schedctl: exposition OK")
	}
	return nil
}

// cmdWatch subscribes to the daemon's SSE event stream and prints
// each event's JSON payload as one line. A dropped connection is
// resumed automatically: the last SSE id (the daemon's hub-global event
// ID) is replayed back as Last-Event-ID, so the daemon's replay ring
// delivers exactly the missed events and a long watch survives
// transient drops without gaps or duplicates. It exits zero after
// -count events, non-zero on a -timeout expiry before -count events
// arrived (or, with -no-reconnect, on the first drop).
func cmdWatch(base string, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	types := fs.String("types", "", "comma-separated event type filter: plan-version, job-planned, job-completed, plan-improved (empty = all)")
	count := fs.Int("count", 0, "exit after this many events (0 = until interrupted)")
	timeout := fs.Duration("timeout", 0, "give up after this long (0 = no deadline)")
	noReconn := fs.Bool("no-reconnect", false, "exit when the stream drops instead of resuming with Last-Event-ID")
	fs.Parse(args)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	url := base + "/v1/events"
	if *types != "" {
		url += "?types=" + *types
	}

	seen := 0
	var lastID uint64
	haveID := false
	backoff := 200 * time.Millisecond
	for {
		got, err := watchOnce(ctx, url, lastID, haveID, func(id uint64, data string) bool {
			lastID, haveID = id, true
			fmt.Println(data)
			seen++
			return *count == 0 || seen < *count
		})
		if *count > 0 && seen >= *count {
			return nil
		}
		if ctx.Err() != nil {
			if *count > 0 {
				return fmt.Errorf("stream ended after %d of %d events: %w", seen, *count, ctx.Err())
			}
			return nil
		}
		if err != nil && !haveID {
			// Never received an event on any connection: the daemon is down
			// or the URL is wrong — reconnecting would not help.
			return err
		}
		if *noReconn {
			if err != nil {
				return err
			}
			if *count > 0 {
				return fmt.Errorf("stream closed after %d of %d events", seen, *count)
			}
			return nil
		}
		if got > 0 {
			backoff = 200 * time.Millisecond // the drop followed a healthy stretch
		}
		fmt.Fprintf(os.Stderr, "schedctl: stream dropped (%v), resuming from id %d in %s\n", err, lastID, backoff)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// watchOnce runs one SSE connection: it resumes from lastID when haveID
// (sending it as Last-Event-ID), parses id:/data: frames, and calls
// emit for every event not already delivered on a previous connection
// (the id-based dedup makes reconnects exactly-once even when the
// daemon falls back to fresh primers). It returns how many events it
// emitted and the transport error, nil on clean close or when emit
// asked to stop.
func watchOnce(ctx context.Context, url string, lastID uint64, haveID bool, emit func(id uint64, data string) bool) (int, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return 0, err
	}
	if haveID {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return 0, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 64*1024)
	var curID uint64
	got := 0
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			curID, _ = strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
		case strings.HasPrefix(line, "data: "):
			if haveID && curID <= lastID {
				continue // replayed or primer frame we already delivered
			}
			got++
			if !emit(curID, strings.TrimPrefix(line, "data: ")) {
				return got, nil
			}
		}
	}
	return got, sc.Err()
}

func cmdLoadgen(base string, args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	swfPath := fs.String("swf", "", "SWF trace file (overrides -synthetic)")
	synthetic := fs.Int("synthetic", 1000, "synthesize this many CTC-like jobs when no trace is given")
	seed := fs.Uint64("seed", 1, "seed for synthetic workloads")
	nJobs := fs.Int("jobs", 0, "replay only the first N jobs of the trace (0 = all)")
	accel := fs.Float64("accel", 1000, "trace-time compression factor")
	sources := fs.Int("sources", 4, "distinct source labels (round-robin)")
	timeout := fs.Duration("wait-timeout", 60*time.Second, "bound on the wait for all accepted jobs to be planned")
	asJSON := fs.Bool("json", false, "emit the result as JSON instead of the report")
	idemPrefix := fs.String("idem-prefix", "", "attach deterministic Idempotency-Key headers (\"<prefix>-<i>\"); rerun with the same prefix for the crash-resume drill")
	sloDeadline := fs.Int64("deadline", 0, "attach this start-SLO (virtual seconds) to every submission; deadline rejections are counted separately (0 = none)")
	targetsCS := fs.String("targets", "", "comma-separated base URLs to spread submissions across round-robin (empty = -addr only)")
	fs.Parse(args)

	tr, err := cliutil.LoadTrace("schedctl", *swfPath, *synthetic, *seed, true)
	if err != nil {
		return err
	}
	if *nJobs > 0 && *nJobs < len(tr.Jobs) {
		tr.Jobs = tr.Jobs[:*nJobs]
	}
	var targets []string
	if *targetsCS != "" {
		for _, t := range strings.Split(*targetsCS, ",") {
			if t = strings.TrimRight(strings.TrimSpace(t), "/"); t != "" {
				targets = append(targets, t)
			}
		}
	}
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:           base,
		Targets:           targets,
		Trace:             tr,
		Accel:             *accel,
		Sources:           *sources,
		WaitTimeout:       *timeout,
		IdempotencyPrefix: *idemPrefix,
		SLODeadlineS:      *sloDeadline,
	})
	if err != nil {
		return err
	}
	if *asJSON {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}
	fmt.Print(res.String())
	if res.DroppedAccepted > 0 {
		return fmt.Errorf("%d accepted jobs were never planned", res.DroppedAccepted)
	}
	if res.DuplicateIDs > 0 {
		return fmt.Errorf("%d submissions were double-admitted (duplicate job IDs)", res.DuplicateIDs)
	}
	if res.MissingJobs > 0 {
		return fmt.Errorf("%d accepted jobs could not be fetched back", res.MissingJobs)
	}
	return nil
}

// cmdWAL inspects a WAL directory offline (the daemon must not have it
// open). "inspect" prints a human summary or -json; "verify" runs the
// same scan but exits non-zero when the log is corrupt or unreplayable,
// which is what scripted integrity checks use.
func cmdWAL(args []string) error {
	if len(args) < 1 || (args[0] != "inspect" && args[0] != "verify") {
		return fmt.Errorf("usage: schedctl wal <inspect|verify> -dir DIR [-json]")
	}
	verb := args[0]
	fs := flag.NewFlagSet("wal "+verb, flag.ExitOnError)
	dir := fs.String("dir", "", "WAL directory (the daemon's -wal-dir)")
	asJSON := fs.Bool("json", false, "emit the full wal.Info as JSON")
	fs.Parse(args[1:])
	if *dir == "" {
		return fmt.Errorf("wal %s: -dir is required", verb)
	}
	info, err := wal.Inspect(*dir)
	if err != nil {
		return fmt.Errorf("wal %s: %w", verb, err)
	}
	if *asJSON {
		b, err := json.MarshalIndent(info, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	} else {
		fmt.Printf("dir:        %s\n", info.Dir)
		fmt.Printf("tail seq:   %d\n", info.TailSeq)
		fmt.Printf("chain:      %s\n", info.Chain)
		fmt.Printf("snapshot:   seq %d (%d snapshot files)\n", info.SnapshotSeq, len(info.Snapshots))
		fmt.Printf("segments:   %d\n", len(info.Segments))
		fmt.Printf("replayable: %d records", info.Replayable)
		if len(info.ByType) > 0 {
			fmt.Print(" (")
			first := true
			for _, t := range sortedTypeKeys(info.ByType) {
				if !first {
					fmt.Print(", ")
				}
				fmt.Printf("%s=%d", t, info.ByType[t])
				first = false
			}
			fmt.Print(")")
		}
		fmt.Println()
		if info.TornBytes > 0 {
			fmt.Printf("torn tail:  %d bytes (truncated on next open)\n", info.TornBytes)
		}
		if info.Corrupt != "" {
			fmt.Printf("CORRUPT:    %s\n", info.Corrupt)
		}
	}
	if verb == "verify" && info.Corrupt != "" {
		return fmt.Errorf("wal verify: %s", info.Corrupt)
	}
	return nil
}

func sortedTypeKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
