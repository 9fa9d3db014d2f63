// WAL layout of the daemon: shard i logs to <root>/shard-<i>.
// The log does not record the shard count, and global job IDs are
// local*N + shard, so a log reopened at another N would start empty
// shards and reinterpret every ID. CheckWALLayout refuses that before
// any log is opened.
package shard

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/wal"
)

const walShardPrefix = "shard-"

// WALDir is shard i's log directory under root.
func WALDir(root string, i int) string {
	return filepath.Join(root, walShardPrefix+strconv.Itoa(i))
}

// CheckWALLayout reports an error when root holds a log written at a
// shard count other than n: segment or snapshot files at its top level
// (the layout of a single-core daemon, which kept one log there), or
// shard-<i> directories that are not exactly shard-0 … shard-<n-1>. A
// missing or empty root passes.
func CheckWALLayout(root string, n int) error {
	ents, err := os.ReadDir(root)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	hasLog, err := wal.HasLog(root)
	if err != nil {
		return err
	}
	if hasLog {
		return fmt.Errorf("wal dir %s holds a single-core log at its top level; move its segment and snapshot files into %s",
			root, WALDir(root, 0))
	}
	var found []int
	for _, e := range ents {
		if s, ok := strings.CutPrefix(e.Name(), walShardPrefix); ok && e.IsDir() {
			if i, err := strconv.Atoi(s); err == nil && i >= 0 && strconv.Itoa(i) == s {
				found = append(found, i)
			}
		}
	}
	if len(found) == 0 {
		return nil
	}
	slices.Sort(found)
	if len(found) == n && found[n-1] == n-1 {
		return nil
	}
	msg := fmt.Sprintf("wal dir %s holds the logs of shards %v, but -shards %d needs exactly shards 0..%d", root, found, n, n-1)
	if found[len(found)-1] == len(found)-1 {
		msg += fmt.Sprintf("; restart with -shards %d", len(found))
	}
	return errors.New(msg)
}
