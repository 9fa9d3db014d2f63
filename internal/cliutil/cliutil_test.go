package cliutil

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestOpenTracerDisabled(t *testing.T) {
	tr, flush, err := OpenTracer("test", "")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Enabled() {
		t.Error("empty path returned an enabled tracer")
	}
	flush() // must be a callable no-op
	flush()
}

func TestOpenTracerWritesAndFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tr, flush, err := OpenTracer("test", path)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Enabled() {
		t.Fatal("tracer not enabled")
	}
	tr.Emit("test.event")

	// Before the flush the event may still sit in the bufio buffer; after
	// it the file must hold the event, and a second flush must be a
	// harmless no-op (the signal handler and the normal exit path can
	// both call it).
	flush()
	flush()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "test.event") {
		t.Errorf("trace file %q does not contain the emitted event", b)
	}
}

func TestOpenTracerBadPath(t *testing.T) {
	if _, _, err := OpenTracer("test", filepath.Join(t.TempDir(), "no", "such", "dir", "t.jsonl")); err == nil {
		t.Error("OpenTracer into a missing directory succeeded")
	}
}

func TestLoadTrace(t *testing.T) {
	tr, err := LoadTrace("test", "", 40, 7, false)
	if err != nil || len(tr.Jobs) != 40 {
		t.Fatalf("synthetic trace: %v, %v", tr, err)
	}
	path := filepath.Join(t.TempDir(), "t.swf")
	good := "1 0 10 3600 16 -1 -1 16 7200 -1 1 3 1 -1 -1 -1 -1 -1\n"
	if err := os.WriteFile(path, []byte(good+"2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrace("test", path, 0, 0, false); err == nil {
		t.Error("strict load accepted a malformed record")
	}
	tr, err = LoadTrace("test", path, 0, 0, true)
	if err != nil || len(tr.Jobs) != 1 {
		t.Errorf("lenient load: %v jobs, %v; want 1 job", tr, err)
	}
	if _, err := LoadTrace("test", filepath.Join(t.TempDir(), "absent.swf"), 0, 0, true); err == nil {
		t.Error("missing file loaded")
	}
}
