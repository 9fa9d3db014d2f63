// Package cliutil holds the small pieces the command-line binaries
// share: loading a workload trace, opening a buffered JSONL event
// tracer and making sure it is flushed on every exit path, including
// SIGINT/SIGTERM. Long
// simulations and solver runs are exactly the processes users interrupt
// with ^C, and a killed process with an unflushed bufio writer silently
// truncates its trace — so each binary routes its cleanup through here
// instead of hand-rolling the signal handling.
package cliutil

import (
	"bufio"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/swf"
	"repro/internal/workload"
)

// LoadTrace reads the SWF file at path, or synthesizes a CTC-like
// workload of synthetic jobs from seed when path is empty. lenient
// skips corrupt records instead of failing; skipped and dropped record
// counts are reported on stderr, prefixed with name.
func LoadTrace(name, path string, synthetic int, seed uint64, lenient bool) (*job.Trace, error) {
	if path == "" {
		return workload.Generate(workload.CTC(), synthetic, seed)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := swf.ParseWith(f, swf.Options{Lenient: lenient})
	if err != nil {
		return nil, err
	}
	if res.Skipped > 0 {
		fmt.Fprintf(os.Stderr, "%s: skipped %d unusable records\n", name, res.Skipped)
	}
	if res.Malformed > 0 {
		fmt.Fprintf(os.Stderr, "%s: dropped %d malformed records (first bad lines: %v)\n",
			name, res.Malformed, res.BadLines)
	}
	return res.Trace, nil
}

// OpenTracer opens path for a buffered JSONL obs.Tracer. The returned
// flush reports any tracer write error to stderr (prefixed with name),
// flushes the buffer and closes the file; it is idempotent, so it can
// be deferred and also handed to ExitOnSignal. An empty path returns a
// nil tracer (the obs package treats nil as disabled) and a no-op
// flush.
func OpenTracer(name, path string) (*obs.Tracer, func(), error) {
	if path == "" {
		return nil, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	tracer := obs.NewTracer(bw)
	var once sync.Once
	flush := func() {
		once.Do(func() {
			if err := tracer.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: trace: %v\n", name, err)
			}
			if err := bw.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: trace flush: %v\n", name, err)
			}
			f.Close()
		})
	}
	return tracer, flush, nil
}

// ExitOnSignal installs a SIGINT/SIGTERM handler that runs cleanup and
// exits with the conventional 128+signal status. Binaries with their
// own shutdown sequence (the schedd daemon drains instead of exiting)
// should handle signals themselves and only share the flush func.
func ExitOnSignal(cleanup func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		if cleanup != nil {
			cleanup()
		}
		code := 128 + 2 // SIGINT
		if sig == syscall.SIGTERM {
			code = 128 + 15
		}
		os.Exit(code)
	}()
}
