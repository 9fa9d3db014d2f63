package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/workload"
)

// The serving workloads drive the cmd/schedd binary built from the same
// checkout over HTTP, with an open-loop generator: job i is due at
// i/rate seconds and is timed from that due time, so a stall that delays
// later sends counts against them. Only the flags -addr, -accel,
// -wal-dir, -shards and -shard-wide are used.
const (
	streamServe = 3
	restarts    = 5
	// waitLimit bounds every wait on the daemon; a stall dumps its health
	// and flight recorder and fails the run instead of hanging it.
	waitLimit = 30 * time.Second
	pollEvery = 2 * time.Millisecond
)

// serveSpec is one serving workload. accel is the daemon's virtual
// seconds per wall second: 369 × rate keeps CTC's mean interarrival of
// 369 virtual seconds, so the machine sees the trace's own load.
type serveSpec struct {
	rate   float64
	accel  float64
	wal    bool
	shards int
	wide   int
}

func runServeWAL(ctx context.Context, cfg *config) (*outcome, error) {
	return runServe(ctx, cfg, serveSpec{rate: 300, accel: 369 * 300, wal: true})
}

func runServeSharded(ctx context.Context, cfg *config) (*outcome, error) {
	return runServe(ctx, cfg, serveSpec{rate: 600, accel: 369 * 600, shards: 2, wide: 256})
}

func (s serveSpec) args(walDir string) []string {
	a := []string{"-addr", "127.0.0.1:0", "-accel", strconv.FormatFloat(s.accel, 'f', -1, 64)}
	if walDir != "" {
		a = append(a, "-wal-dir", walDir)
	}
	if s.shards > 1 {
		a = append(a, "-shards", strconv.Itoa(s.shards), "-shard-wide", strconv.Itoa(s.wide))
	}
	return a
}

// daemon is one running schedd process in its own process group.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed when its stderr reaches EOF
	mu   sync.Mutex
	log  []string // the last stderr lines, for diagnostics
}

// startDaemon starts schedd and waits until it serves with every WAL
// replayed. It returns the daemon and the time from exec to ready.
func startDaemon(ctx context.Context, cfg *config, args []string, client *http.Client) (*daemon, float64, error) {
	t0 := time.Now()
	cmd := exec.Command(cfg.schedd, args...)
	// The daemon runs on one core; the generator has the other.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", cfg.schedd, err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	urlCh := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log = append(d.log, line)
			if len(d.log) > 20 {
				d.log = d.log[1:]
			}
			d.mu.Unlock()
			if _, u, ok := strings.Cut(line, "listening on "); ok {
				select {
				case urlCh <- strings.TrimSpace(u):
				default:
				}
			}
		}
	}()
	timer := time.NewTimer(waitLimit)
	defer timer.Stop()
	select {
	case d.url = <-urlCh:
	case <-d.done:
		d.kill()
		return nil, 0, fmt.Errorf("schedd exited before listening:\n%s", d.stderrTail())
	case <-timer.C:
		d.kill()
		return nil, 0, fmt.Errorf("schedd did not listen within %s:\n%s", waitLimit, d.stderrTail())
	case <-ctx.Done():
		d.kill()
		return nil, 0, ctx.Err()
	}
	deadline := time.Now().Add(waitLimit)
	for {
		var h struct {
			Phase  string   `json:"phase"`
			Phases []string `json:"phases"`
		}
		// One core reports "phase"; the sharded fabric one phase per shard.
		if err := getJSON(ctx, client, d.url+"/v1/healthz", &h); err == nil {
			ready := h.Phase == "ready"
			if len(h.Phases) > 0 {
				ready = true
				for _, p := range h.Phases {
					ready = ready && p == "ready"
				}
			}
			if ready {
				return d, time.Since(t0).Seconds(), nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.dump(ctx, client)
			d.kill()
			return nil, 0, fmt.Errorf("schedd not ready within %s", waitLimit)
		}
		time.Sleep(pollEvery)
	}
}

// kill stops the daemon's whole process group and waits for it.
func (d *daemon) kill() {
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	<-d.done
	_ = d.cmd.Wait() // reports the SIGKILL
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.log, "\n")
}

// dump writes the daemon's health and flight recorder to stderr: what a
// stalled wait needs for a diagnosis.
func (d *daemon) dump(ctx context.Context, client *http.Client) {
	for _, path := range []string{"/v1/healthz", "/v1/replans"} {
		var v json.RawMessage
		err := getJSON(ctx, client, d.url+path, &v)
		fmt.Fprintf(os.Stderr, "bench: stall: GET %s: %s (err %v)\n", path, bytes.TrimSpace(v), err)
	}
	fmt.Fprintf(os.Stderr, "bench: stall: schedd stderr:\n%s\n", d.stderrTail())
}

// cpuSeconds is the daemon's user+system CPU time from /proc.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times (100 on Linux).
const clockTicks = 100

func newClient() *http.Client {
	// One connection per client; the run uses two clients, so the daemon
	// never sees more than two connections.
	return &http.Client{
		Timeout:   waitLimit,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// metricSnap is a /v1/metrics dump keyed by name and labels, e.g.
// "schedd.replan.duration.ms{kind=step}". The sharded fabric adds a shard
// label; lookups read its shard="all" roll-up.
type metricSnap map[string]struct{ value, sum float64 }

func scrape(ctx context.Context, c *http.Client, url string) (metricSnap, error) {
	var ms []struct {
		Name   string `json:"name"`
		Labels []struct {
			Key   string `json:"key"`
			Value string `json:"value"`
		} `json:"labels"`
		Value float64 `json:"value"`
		Sum   float64 `json:"sum"`
	}
	if err := getJSON(ctx, c, url+"/v1/metrics", &ms); err != nil {
		return nil, err
	}
	snap := metricSnap{}
	for _, m := range ms {
		var ls []string
		for _, l := range m.Labels {
			ls = append(ls, l.Key+"="+l.Value)
		}
		snap[m.Name+"{"+strings.Join(ls, ",")+"}"] = struct{ value, sum float64 }{m.Value, m.Sum}
	}
	return snap, nil
}

// delta returns the change of a counter's value (or a histogram's count)
// and sum between two snapshots.
func delta(a, b metricSnap, name, labels string) (value, sum float64) {
	for _, key := range []string{name + "{" + labels + "}", name + "{" + strings.TrimPrefix(labels+",shard=all", ",") + "}"} {
		if vb, ok := b[key]; ok {
			va := a[key]
			return vb.value - va.value, vb.sum - va.sum
		}
	}
	return 0, 0
}

// sendRec is one open-loop submission.
type sendRec struct {
	due, sent, acked time.Time
	id               int
	err              error
}

type submitBody struct {
	Width    int   `json:"width"`
	Estimate int64 `json:"estimate_s"`
	Runtime  int64 `json:"runtime_s"`
}

func runServe(ctx context.Context, cfg *config, spec serveSpec) (*outcome, error) {
	o := newOutcome()
	clients := [2]*http.Client{newClient(), newClient()}
	defer clients[0].CloseIdleConnections()
	defer clients[1].CloseIdleConnections()

	n := max(10, int(spec.rate*cfg.seconds))
	tr, err := workload.Generate(workload.CTC(), n, subSeed(cfg.seed, streamServe, 0))
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, n)
	for i, j := range tr.Jobs {
		bodies[i], _ = json.Marshal(submitBody{Width: j.Width, Estimate: j.Estimate, Runtime: j.Runtime})
	}

	// Set-up: fresh starts of the daemon, each on an empty WAL directory;
	// the last one serves the timed phase.
	var (
		d      *daemon
		walDir string
		setups []float64
	)
	defer func() {
		if d != nil {
			d.kill()
		}
		if walDir != "" {
			os.RemoveAll(walDir)
		}
	}()
	// A start takes milliseconds, so the median is over more of them.
	for i := 0; i < cfg.setupCount(15); i++ {
		if d != nil {
			d.kill()
			d = nil
		}
		if walDir != "" {
			os.RemoveAll(walDir)
			walDir = ""
		}
		if spec.wal {
			if walDir, err = os.MkdirTemp(cfg.workdir, "wal-"); err != nil {
				return nil, err
			}
		}
		var secs float64
		if d, secs, err = startDaemon(ctx, cfg, spec.args(walDir), clients[0]); err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	o.e2e["setup_s"] = median(setups)

	// Timed phase: open loop at spec.rate over two connections.
	before, err := scrape(ctx, clients[0], d.url)
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	recs := make([]sendRec, n)
	interval := time.Duration(float64(time.Second) / spec.rate)
	t0 := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for w := range clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n && ctx.Err() == nil; i += len(clients) {
				recs[i] = submit(ctx, clients[w], d.url, bodies[i], t0.Add(time.Duration(i)*interval))
				cfg.tr.record("loadgen.late", int64(i+1), 0, recs[i].due, recs[i].sent)
				cfg.tr.record("http.POST /v1/jobs", int64(i+1), 0, recs[i].sent, recs[i].acked)
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	after, err := scrape(ctx, clients[0], d.url)
	if err != nil {
		return nil, err
	}
	var wall float64 // first due time to last response
	for _, r := range recs {
		wall = max(wall, r.acked.Sub(t0).Seconds())
	}

	// Every accepted job must be planned, under a unique ID.
	o.attempted = n
	seen := map[int]bool{}
	var accepted []int // indexes into recs
	for i, r := range recs {
		switch {
		case r.err != nil:
			o.failed++
			if o.failed <= 3 {
				fmt.Fprintf(os.Stderr, "bench: submit %d failed: %v\n", i, r.err)
			}
		case seen[r.id]:
			o.failed++
			o.problem("job ID %d was returned twice", r.id)
		default:
			seen[r.id] = true
			accepted = append(accepted, i)
		}
	}
	planMs, err := awaitPlans(ctx, cfg.tr, d, clients[0], recs, accepted)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	o.layer["proc.peak_rss_mb"] = rss

	var late, sub, plan []float64
	for k, i := range accepted {
		if planMs[k] < 0 {
			o.failed++ // never planned
			continue
		}
		r := recs[i]
		late = append(late, float64(r.sent.Sub(r.due).Nanoseconds())/1e6)
		sub = append(sub, float64(r.acked.Sub(r.sent).Nanoseconds())/1e6)
		plan = append(plan, planMs[k])
		o.opMs = append(o.opMs, late[len(late)-1]+sub[len(sub)-1]+planMs[k])
	}
	if len(o.opMs) == 0 {
		return nil, errors.New("no job was planned")
	}
	o.e2e["op_p50_ms"] = percentile(o.opMs, 0.5)
	o.e2e["op_p90_ms"] = percentile(o.opMs, 0.9)
	fmt.Fprintf(os.Stderr, "bench: %d jobs at %.0f/s over %.2fs; submit p50 %.3f ms, plan p50 %.3f ms p99 %.3f ms, generator late p50 %.3f ms p99 %.3f ms\n",
		n, spec.rate, wall, percentile(sub, 0.5), percentile(plan, 0.5), percentile(plan, 0.99),
		percentile(late, 0.5), percentile(late, 0.99))
	serveLayers(o, before, after, cpu1-cpu0, wall, mean(late), mean(sub), mean(plan), mean(o.opMs))

	if !spec.wal {
		return o, nil
	}
	// Crash recovery: SIGKILL, restart on the same WAL directory, time
	// exec to ready (replay and re-step included).
	var restartS []float64
	for i := 0; i < restarts; i++ {
		d.kill()
		var secs float64
		if d, secs, err = startDaemon(ctx, cfg, spec.args(walDir), clients[0]); err != nil {
			return nil, fmt.Errorf("restart %d: %w", i+1, err)
		}
		restartS = append(restartS, secs)
	}
	fmt.Fprintf(os.Stderr, "bench: restart to ready after SIGKILL: %v s\n", restartS)
	o.layer["wal.recover_vs_setup"] = frac(median(restartS), o.e2e["setup_s"])
	if err := checkRecovered(ctx, o, d, clients[0], recs, accepted); err != nil {
		return nil, err
	}
	return o, nil
}

// submit sends one job when it is due and records the times.
func submit(ctx context.Context, c *http.Client, url string, body []byte, due time.Time) sendRec {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	r := sendRec{due: due, sent: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		r.err, r.acked = err, time.Now()
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		r.err, r.acked = err, time.Now()
		return r
	}
	var sr struct {
		ID int `json:"id"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&sr)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r.acked = time.Now()
	switch {
	case resp.StatusCode != http.StatusAccepted:
		r.err = fmt.Errorf("POST /v1/jobs: %s", resp.Status)
	case derr != nil:
		r.err = fmt.Errorf("POST /v1/jobs: bad response: %w", derr)
	default:
		r.id = sr.ID
	}
	return r
}

// jobStatus is the part of GET /v1/jobs/{id} the benchmark reads.
type jobStatus struct {
	State         string  `json:"state"`
	PlanLatencyMs float64 `json:"plan_latency_ms"`
}

// awaitPlans sweeps the accepted jobs' status until each is planned and
// returns their server-side plan latency (admission to first adopted
// plan); a job still unplanned at the deadline reports -1.
func awaitPlans(ctx context.Context, tr *tracer, d *daemon, c *http.Client, recs []sendRec, accepted []int) ([]float64, error) {
	out := make([]float64, len(accepted))
	pending := make([]int, len(accepted))
	for k := range out {
		out[k], pending[k] = -1, k
	}
	deadline := time.Now().Add(waitLimit)
	for len(pending) > 0 {
		var still []int
		for _, k := range pending {
			var st jobStatus
			t0 := time.Now()
			err := getJSON(ctx, c, fmt.Sprintf("%s/v1/jobs/%d", d.url, recs[accepted[k]].id), &st)
			tr.record("http.GET /v1/jobs", int64(accepted[k]+1), 0, t0, time.Now())
			if err != nil {
				return nil, fmt.Errorf("status sweep: %w", err)
			}
			if st.State == "queued" || st.PlanLatencyMs < 0 {
				still = append(still, k)
				continue
			}
			out[k] = st.PlanLatencyMs
		}
		pending = still
		if len(pending) == 0 {
			break
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.dump(ctx, c)
			fmt.Fprintf(os.Stderr, "bench: stall: %d jobs still unplanned after %s\n", len(pending), waitLimit)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	return out, ctx.Err()
}

// serveLayers splits the mean due→planned time into layer shares and
// reports the daemon-side counters of the timed phase.
func serveLayers(o *outcome, before, after metricSnap, cpuS, wallS, late, sub, plan, op float64) {
	walN, walMs := delta(before, after, "wal.append.wait.ms", "")
	stepN, stepMs := delta(before, after, "schedd.replan.duration.ms", "kind=step")
	_, replMs := delta(before, after, "schedd.replan.duration.ms", "kind=completion")
	walWait, stepMean := frac(walMs, walN), frac(stepMs, stepN)
	o.layer["loadgen.late_frac"] = frac(late, op)
	o.layer["wal.append_frac"] = frac(walWait, op)
	o.layer["http.submit_frac"] = frac(sub-walWait, op)
	o.layer["schedd.step_frac"] = frac(stepMean, op)
	o.layer["schedd.wait_frac"] = frac(plan-stepMean, op)
	o.layer["trace.layer_sum_frac"] = o.layer["loadgen.late_frac"] + o.layer["wal.append_frac"] +
		o.layer["schedd.step_frac"] + o.layer["schedd.wait_frac"]

	o.layer["schedd.busy_frac"] = frac(cpuS, wallS)
	o.layer["schedd.step_busy_frac"] = frac(stepMs/1e3, wallS)
	o.layer["schedd.completion_busy_frac"] = frac(replMs/1e3, wallS)
	batches, _ := delta(before, after, "schedd.batches", "")
	steps, _ := delta(before, after, "schedd.steps", "")
	replans, _ := delta(before, after, "schedd.replans", "")
	bN, bSum := delta(before, after, "schedd.batch.size", "")
	o.layer["schedd.batches"] = batches
	o.layer["schedd.steps"] = steps
	o.layer["schedd.replans"] = replans
	o.layer["schedd.batch_size_mean"] = frac(bSum, bN)
	appends, _ := delta(before, after, "wal.appends", "")
	fsyncs, _ := delta(before, after, "wal.fsyncs", "")
	fbN, fbSum := delta(before, after, "wal.fsync.batch", "")
	_, fsMs := delta(before, after, "wal.fsync.ms", "")
	o.layer["wal.appends"] = appends
	o.layer["wal.fsyncs"] = fsyncs
	o.layer["wal.fsync_batch_mean"] = frac(fbSum, fbN)
	o.layer["wal.fsync_busy_frac"] = frac(fsMs/1e3, wallS)
	wide, _ := delta(before, after, "shard.routed.wide", "")
	narrow, _ := delta(before, after, "shard.routed.narrow", "")
	o.layer["shard.routed_wide"] = wide
	o.layer["shard.routed_narrow"] = narrow
}

// checkRecovered checks that the restarted daemon still knows every
// accepted job and reads how many WAL records its start replayed.
func checkRecovered(ctx context.Context, o *outcome, d *daemon, c *http.Client, recs []sendRec, accepted []int) error {
	snap, err := scrape(ctx, c, d.url)
	if err != nil {
		return err
	}
	o.layer["wal.replay_records"] = snap["wal.replay.records{}"].value
	lost := 0
	for _, i := range accepted {
		var st jobStatus
		if err := getJSON(ctx, c, fmt.Sprintf("%s/v1/jobs/%d", d.url, recs[i].id), &st); err != nil {
			if lost == 0 {
				o.problem("job %d lost after %d restarts: %v", recs[i].id, restarts, err)
			}
			lost++
		}
	}
	if lost > 0 {
		o.failed += lost
		o.problem("%d of %d accepted jobs lost after the restarts", lost, len(accepted))
	}
	return nil
}
