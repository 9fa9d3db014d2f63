package shard

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wal"
)

// openShardLogs writes a small log into each of n shard directories,
// as an n-shard daemon with -wal-dir root leaves them.
func openShardLogs(t *testing.T, root string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		l, _, err := wal.Open(wal.Options{Dir: WALDir(root, i), NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append("submit", map[string]int{"id": 1}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckWALLayout(t *testing.T) {
	t.Run("fresh", func(t *testing.T) {
		root := t.TempDir()
		for _, dir := range []string{root, filepath.Join(root, "absent")} {
			if err := CheckWALLayout(dir, 1); err != nil {
				t.Errorf("%s: %v, want nil", dir, err)
			}
		}
	})
	t.Run("same shard count reopens", func(t *testing.T) {
		root := t.TempDir()
		openShardLogs(t, root, 2)
		if err := CheckWALLayout(root, 2); err != nil {
			t.Errorf("2-shard log at N=2: %v, want nil", err)
		}
	})
	t.Run("other shard count refused", func(t *testing.T) {
		root := t.TempDir()
		openShardLogs(t, root, 2)
		for _, n := range []int{1, 4} {
			err := CheckWALLayout(root, n)
			if err == nil || !strings.Contains(err.Error(), "restart with -shards 2") {
				t.Errorf("2-shard log at N=%d: %v, want a refusal naming -shards 2", n, err)
			}
		}
	})
	t.Run("gap refused", func(t *testing.T) {
		root := t.TempDir()
		openShardLogs(t, root, 2)
		if err := os.Rename(WALDir(root, 1), WALDir(root, 2)); err != nil {
			t.Fatal(err)
		}
		if err := CheckWALLayout(root, 2); err == nil || !strings.Contains(err.Error(), "[0 2]") {
			t.Errorf("shard-0 and shard-2 at N=2: %v, want a refusal naming both", err)
		}
	})
	t.Run("top-level log refused", func(t *testing.T) {
		root := t.TempDir()
		l, _, err := wal.Open(wal.Options{Dir: root, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append("submit", map[string]int{"id": 1}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2} {
			err := CheckWALLayout(root, n)
			if err == nil || !strings.Contains(err.Error(), WALDir(root, 0)) {
				t.Errorf("top-level log at N=%d: %v, want a refusal naming %s", n, err, WALDir(root, 0))
			}
		}
	})
}
