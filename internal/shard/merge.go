// Scatter-gather snapshot merge: GET /v1/schedule on the router reads
// every shard's published snapshot concurrently and merges them into
// one machine-wide view. Reads are lock-free on the shard side (the
// atomic snapshot pointer), so the merge never blocks a writer; on the
// router side a gather deadline bounds the wait, and a shard that
// cannot produce its snapshot in time is reported in missing_shards
// with partial=true instead of stalling the response. Shards publish
// independently, so the merged view is a consistent-per-shard cut, not
// a global barrier — the per-shard versions are included so consumers
// can reason about staleness.
package shard

import (
	"sort"
	"time"

	"repro/internal/schedd"
)

// ShardView is one shard's contribution to the merged snapshot.
type ShardView struct {
	Shard   int `json:"shard"`
	Machine int `json:"machine"`
	// Missing marks a shard that failed to produce its snapshot within
	// the gather deadline; its remaining fields are zero.
	Missing    bool   `json:"missing,omitempty"`
	Version    int64  `json:"version"`
	Now        int64  `json:"now"`
	QueueDepth int    `json:"queue_depth"`
	Waiting    int    `json:"waiting"`
	Running    int    `json:"running"`
	Policy     string `json:"policy,omitempty"`
	Degraded   bool   `json:"degraded,omitempty"`
	// PendingMigrations counts migrate-outs awaiting hand-off.
	PendingMigrations int             `json:"pending_migrations,omitempty"`
	Counts            schedd.Counters `json:"counts"`
}

// MergedSnapshot is the machine-wide view assembled from per-shard
// snapshots.
type MergedSnapshot struct {
	// Now is the maximum virtual time across the gathered shards.
	Now    int64 `json:"now"`
	Shards int   `json:"shards"`
	// Machine is the total processor count across all shards.
	Machine int `json:"machine"`
	// Partial marks a merge that is missing at least one shard's
	// snapshot (gather deadline exceeded); MissingShards lists them.
	Partial       bool  `json:"partial"`
	MissingShards []int `json:"missing_shards,omitempty"`
	Draining      bool  `json:"draining"`
	Degraded      bool  `json:"degraded"`
	// Schedule is the union of the shards' plans with globalized job
	// IDs, sorted by (start, ID).
	Schedule []schedd.PlannedEntry `json:"schedule"`
	// Counts sums the gathered shards' monotone totals.
	Counts schedd.Counters `json:"counts"`
	// PerShard carries each shard's own view (including missing ones).
	PerShard []ShardView `json:"per_shard"`
}

// Gather scatter-gathers the current shard snapshots within the
// configured GatherTimeout.
func (r *Router) Gather() *MergedSnapshot {
	type got struct {
		idx  int
		snap *schedd.Snapshot
	}
	// The channel is buffered to n so a fetch that beats the deadline
	// after we stopped listening still completes without leaking its
	// goroutine forever.
	ch := make(chan got, r.n)
	for i := 0; i < r.n; i++ {
		go func(i int) { ch <- got{i, r.fetchSnap[i]()} }(i)
	}
	snaps := make([]*schedd.Snapshot, r.n)
	timer := time.NewTimer(r.cfg.GatherTimeout)
	defer timer.Stop()
	for received := 0; received < r.n; received++ {
		select {
		case g := <-ch:
			snaps[g.idx] = g.snap
		case <-timer.C:
			received = r.n // deadline: merge what arrived
		}
	}
	m := r.merge(snaps, r.queueDepths())
	if m.Partial {
		r.cPartials.Inc()
	}
	return m
}

// queueDepths samples every shard's submit backlog (always available —
// it does not depend on the snapshot fetch).
func (r *Router) queueDepths() []int {
	out := make([]int, r.n)
	for i, c := range r.cores {
		out[i] = c.QueueDepth()
	}
	return out
}

// merge assembles the machine-wide view from whatever snapshots were
// gathered (nil entries are missing shards). depths may be nil.
func (r *Router) merge(snaps []*schedd.Snapshot, depths []int) *MergedSnapshot {
	m := &MergedSnapshot{
		Shards:   r.n,
		Machine:  r.cfg.Machine,
		PerShard: make([]ShardView, r.n),
	}
	for i, s := range snaps {
		v := ShardView{Shard: i, Machine: r.machines[i]}
		if depths != nil {
			v.QueueDepth = depths[i]
		}
		if s == nil {
			v.Missing = true
			m.Partial = true
			m.MissingShards = append(m.MissingShards, i)
			m.PerShard[i] = v
			continue
		}
		v.Version = s.Version
		v.Now = s.Now
		v.Policy = s.Policy
		v.Degraded = s.Degraded
		v.Counts = s.Counts
		v.PendingMigrations = len(r.cores[i].PendingMigrations())
		v.Waiting, v.Running = activeCounts(s)
		m.PerShard[i] = v
		if s.Now > m.Now {
			m.Now = s.Now
		}
		m.Draining = m.Draining || s.Draining
		m.Degraded = m.Degraded || s.Degraded
		addCounts(&m.Counts, s.Counts)
		for _, e := range s.Schedule {
			e.JobID = r.global(i, e.JobID)
			m.Schedule = append(m.Schedule, e)
		}
	}
	sort.Slice(m.Schedule, func(i, k int) bool {
		if m.Schedule[i].Start != m.Schedule[k].Start {
			return m.Schedule[i].Start < m.Schedule[k].Start
		}
		return m.Schedule[i].JobID < m.Schedule[k].JobID
	})
	return m
}

// ActiveJobs lists the jobs the shards' latest snapshots hold (waiting
// or running) with global IDs, sorted by ID. After Stop it is the
// drained fabric's unfinished work.
func (r *Router) ActiveJobs() []schedd.JobStatus {
	jobs := []schedd.JobStatus{}
	for i, c := range r.cores {
		for local, st := range c.Snapshot().Active {
			st.ID = r.global(i, local)
			st.Shard = i
			jobs = append(jobs, st)
		}
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	return jobs
}

// activeCounts splits a snapshot's active jobs into waiting and
// running.
func activeCounts(s *schedd.Snapshot) (waiting, running int) {
	for _, st := range s.Active {
		if st.State == schedd.StateRunning {
			running++
		}
	}
	return len(s.Active) - running, running
}

func addCounts(dst *schedd.Counters, s schedd.Counters) {
	dst.Submitted += s.Submitted
	dst.Planned += s.Planned
	dst.Started += s.Started
	dst.Completed += s.Completed
	dst.Steps += s.Steps
	dst.Replans += s.Replans
	dst.Batches += s.Batches
	dst.BatchedJobs += s.BatchedJobs
	dst.DegradedSteps += s.DegradedSteps
}
