// Queued-job migration: the core-side half of the shard rebalancer's
// move protocol (internal/shard). A migration moves a job that is
// admitted but not yet planned — still sitting in the submit queue,
// untouched by the writer loop — from this core to another shard's
// core. The protocol is exactly-once under crashes:
//
//  1. StealQueued drains eligible submissions from the queue and logs a
//     durable migrate-out record per job (fsynced before the job is
//     handed to the caller) carrying the full job, the target shard,
//     and a synthetic idempotency key "mig:<src-shard>:<id>".
//  2. The router submits the job to the recorded target shard under
//     that key. The target's own WAL makes the admission durable, and
//     the key dedupes any retry of the hand-off.
//  3. MigrateDone logs the confirmation (with the job's new global ID)
//     and clears the pending entry.
//
// A crash between any two steps leaves the job in this core's pending
// set (rebuilt by WAL replay); the router re-drives step 2 against the
// *recorded* target — never a freshly chosen one — so the target-side
// dedup key guarantees the job is admitted, and therefore planned,
// exactly once. Keyed submissions are never stolen: their routing is
// pinned by key hash at the front end, so a rebalance can never split
// one idempotency key across shards.
package schedd

import (
	"sort"

	"repro/internal/obs"
)

// MigratedJob is one queued job stolen from this core's submit queue,
// ready to be re-submitted to the target shard.
type MigratedJob struct {
	// ID is the job's local ID in the source core.
	ID int `json:"id"`
	// Submit is the virtual admission time at the source.
	Submit   int64  `json:"submit"`
	Width    int    `json:"width"`
	Estimate int64  `json:"estimate_s"`
	Runtime  int64  `json:"runtime_s"`
	Source   string `json:"source,omitempty"`
	Trace    string `json:"trace,omitempty"`
	// Target is the shard index the migration was committed against.
	// Crash recovery must complete the hand-off to this exact shard.
	Target int `json:"target"`
	// Key is the synthetic idempotency key that makes the hand-off
	// retryable: "mig:<src-shard>:<id>".
	Key string `json:"key"`
}

// StealQueued removes up to max unkeyed submissions from the submit
// queue for migration to the given target shard, durably logging each
// migrate-out before returning it. Keyed submissions are re-queued (a
// key pins its job to the shard the front end hashed it to), as are
// jobs wider than maxWidth (the target's sub-machine size; a wider job
// would be rejected by the target forever, 0 = unbounded). A stolen
// job stays visible to Job as queued — the pending-migration entry is
// recorded before the pending entry is deleted — until MigrateDone
// confirms the hand-off, so a status lookup racing a migration (or
// arriving after crash recovery, before the hand-off is re-driven)
// never 404s. Safe to call concurrently with Submit and the writer
// loop: the queue is a channel, so every submission is drained by
// exactly one side.
func (c *Core) StealQueued(max, target, maxWidth int) []MigratedJob {
	if max <= 0 {
		return nil
	}
	var out []MigratedJob
	var requeue []*submission
	// Bound the scan by the backlog observed at entry so concurrent
	// submissions cannot trap the loop, and keyed jobs are not examined
	// twice.
	scan := len(c.submitCh)
	for i := 0; i < scan && len(out) < max; i++ {
		var sub *submission
		select {
		case sub = <-c.submitCh:
		default:
			i = scan // queue drained
			continue
		}
		if sub.idemKey != "" || (maxWidth > 0 && sub.job.Width > maxWidth) {
			requeue = append(requeue, sub)
			continue
		}
		m := MigratedJob{
			ID: sub.job.ID, Submit: sub.job.Submit, Width: sub.job.Width,
			Estimate: sub.job.Estimate, Runtime: sub.job.Runtime,
			Source: sub.source, Trace: sub.trace,
			Target: target, Key: migrationKey(c.cfg.ShardID, sub.job.ID),
		}
		if w := c.cfg.WAL; w != nil {
			// The migrate-out barrier: once this record is durable the
			// job's home is the target shard, even across a crash. On a
			// WAL failure the job stays here (re-queued) rather than
			// risking a copy on both sides.
			if _, err := w.AppendSync(walMigrate, m, nil); err != nil {
				c.trace.Emit("schedd.migrate.wal.error", obs.Int("job", int64(sub.job.ID)), obs.Str("err", err.Error()))
				requeue = append(requeue, sub)
				continue
			}
		}
		c.migMu.Lock()
		c.pendingMig[m.ID] = m
		c.migMu.Unlock()
		c.pending.Delete(m.ID)
		c.inflightDone(sub.walSeq)
		c.trace.Emit("schedd.migrate.out",
			obs.Int("job", int64(m.ID)),
			obs.Int("target", int64(target)),
			obs.Int("width", int64(m.Width)))
		out = append(out, m)
	}
	for _, sub := range requeue {
		// Capacity exists (we just drained at least this many slots); a
		// racing Submit may have refilled the queue, in which case the
		// send blocks briefly until the writer drains — never drops.
		c.submitCh <- sub
	}
	return out
}

// MigrationKeyPrefix is the reserved idempotency-key namespace of the
// migration hand-off protocol. The sharded front end rejects client
// keys carrying it: a client key like "mig:0:7" that hashed to a
// migration's target shard would otherwise dedup a user job against a
// migrated one (or vice versa), silently returning the wrong job's ID.
const MigrationKeyPrefix = "mig:"

// migrationKey mints the synthetic idempotency key of a migrated job.
func migrationKey(srcShard, id int) string {
	return MigrationKeyPrefix + itoa(srcShard) + ":" + itoa(id)
}

func itoa(v int) string {
	// Tiny non-negative itoa to keep the hot path allocation-lean.
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// MigrateDone confirms that the target shard durably admitted the
// migrated job: the pending entry is cleared, the alias from the old
// local ID to the job's new global ID is recorded for front-end
// lookups, and the confirmation is logged (asynchronously — if it is
// lost, recovery re-drives the hand-off and the target dedups it).
func (c *Core) MigrateDone(id int, targetGlobal int64) {
	c.migMu.Lock()
	delete(c.pendingMig, id)
	c.migAliases[id] = targetGlobal
	c.migMu.Unlock()
	c.walAppend(walMigrateDone, migrateDoneWAL{ID: id, TargetGlobal: targetGlobal})
	c.trace.Emit("schedd.migrate.done",
		obs.Int("job", int64(id)),
		obs.Int("target_global", targetGlobal))
}

// PendingMigrations returns the migrate-outs whose target hand-off has
// not been confirmed, sorted by job ID. After WAL recovery the router
// completes each one against its recorded target shard.
func (c *Core) PendingMigrations() []MigratedJob {
	c.migMu.Lock()
	out := make([]MigratedJob, 0, len(c.pendingMig))
	for _, m := range c.pendingMig {
		out = append(out, m)
	}
	c.migMu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// MigrationAliases returns the local-ID → new-global-ID map of every
// confirmed migration (a copy). The router uses it to rebuild its alias
// table after a restart.
func (c *Core) MigrationAliases() map[int]int64 {
	c.migMu.Lock()
	defer c.migMu.Unlock()
	out := make(map[int]int64, len(c.migAliases))
	for k, v := range c.migAliases {
		out[k] = v
	}
	return out
}
