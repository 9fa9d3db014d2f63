// Package wal is the durable write-ahead job log of the scheduling
// service: an append-only, hash-chained, CRC-checksummed record log
// with batched group-commit fsync, periodic state snapshots, and
// prefix-exact crash recovery.
//
// The design follows the same amortization idea as schedd's submission
// batching: instead of one fsync per record, concurrent appenders are
// coalesced into one write + one fsync (group commit, bounded by
// Options.FsyncEvery), so per-record durability cost shrinks as load
// grows — exactly when it matters. Segments are preallocated up front
// (fallocate) so appends never change file metadata and the flush is
// fdatasync — a pure data flush that does not serialize on the
// filesystem journal against snapshot writes, directory updates, or
// any other fsync on the machine, which is what keeps the commit's
// tail latency flat. Each record is framed as
//
//	len(4, LE) | crc32(4, LE, IEEE, over payload) | chain(32) | payload
//
// where payload is the JSON envelope {"seq","type","data"} and chain is
// the running SHA-256 hash chain
//
//	chain_i = SHA256(chain_{i-1} || payload_i)     (chain_0 = 0…0)
//
// The CRC detects byte corruption of a single record; the chain makes
// the log tamper-evident end to end (a reordered, dropped or rewritten
// record breaks every later link), which doubles as an audit trail of
// admission decisions.
//
// Snapshots bound replay time: Snapshot(appliedSeq, state) persists an
// application state that covers every record with seq <= appliedSeq,
// rotates the log to a fresh segment, and prunes segments that no
// replay can need. Recovery (Open) loads the newest valid snapshot and
// re-applies only the records after it, verifying CRCs, the hash chain
// and seq contiguity along the way. The zero tail of a preallocated
// segment is a clean end; a torn final record — a partial frame
// followed by that zero tail, or by the end of the file — is truncated
// silently (an in-place corruption of the very last record, with
// nothing after it, is indistinguishable from a torn write and is
// likewise dropped, as in every log without a separate commit record).
// Any other corruption — a broken record with live bytes after it —
// refuses to start unless Options.Repair is set, in which case the
// longest valid prefix is kept and the rest dropped — recovery is
// always prefix-exact, never silently wrong.
package wal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

const (
	headerSize    = 4 + 4 + 32 // len | crc | chain
	maxRecordSize = 16 << 20

	// preallocBytes is the segment preallocation unit: segments are
	// fallocated up front so appends never change file metadata and the
	// group commit can flush with fdatasync — a pure data flush that
	// does not serialize on the filesystem journal with every other
	// fsync on the machine (snapshot files, directory updates). A
	// cleanly closed or rotated-away segment is truncated back to its
	// records; scan treats the zero tail of a crashed segment as a
	// clean end.
	preallocBytes = 4 << 20

	// asyncFlushInterval bounds how long async (non-durability-barrier)
	// records sit in the pending queue when no AppendSync leader and no
	// snapshot comes along to flush them.
	asyncFlushInterval = 50 * time.Millisecond

	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

// ErrClosed is returned by appends after Close or Abort.
var ErrClosed = errors.New("wal: closed")

// CorruptError reports a record that is present but invalid: a CRC
// mismatch, a broken hash chain, a seq discontinuity, or a malformed
// envelope. It is how recovery fails loudly instead of loading a
// silently wrong job set.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt log %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Record is one replayed log record.
type Record struct {
	// Seq is the global, contiguous, 1-based sequence number.
	Seq uint64 `json:"seq"`
	// Type names the record kind (application-defined).
	Type string `json:"type"`
	// Data is the application payload.
	Data json.RawMessage `json:"data,omitempty"`
}

// Replay is the recovered tail handed to the application by Open: the
// newest valid snapshot state plus every record after it.
type Replay struct {
	// SnapshotSeq is the applied seq of the loaded snapshot (0 = none).
	SnapshotSeq uint64
	// Snapshot is the application state stored at SnapshotSeq (nil when
	// the log has no snapshot).
	Snapshot json.RawMessage
	// Records are the log records with seq > SnapshotSeq, in order.
	Records []Record
	// TornBytes counts bytes of a torn final record dropped at the tail.
	TornBytes int64
	// Repaired counts records dropped by Options.Repair truncation.
	Repaired int
	// Segments is how many segment files were read.
	Segments int
}

// Options parameterizes Open.
type Options struct {
	// Dir is the log directory (created if missing).
	Dir string
	// FsyncEvery caps how many pending appends one group commit flushes
	// with a single fsync (default 64).
	FsyncEvery int
	// NoSync skips fsync entirely (tests and benchmarks only).
	NoSync bool
	// Repair truncates the log at the first corrupt record instead of
	// refusing to open; the dropped suffix is counted in Replay.Repaired.
	Repair bool
	// Trace and Metrics are the observability sinks (nil-safe).
	Trace   *obs.Tracer
	Metrics *obs.Registry
}

// pendingRec is one queued append (or a snapshot barrier).
type pendingRec struct {
	payload []byte
	done    chan error // non-nil: a waiter wants fsync confirmation
	snap    *snapReq   // non-nil: snapshot barrier, payload unused
}

type snapReq struct {
	appliedSeq uint64
	state      []byte
	done       chan error
}

// Log is an open write-ahead log. Appends are safe for concurrent use.
// Writes are single-writer under the writing token: an AppendSync
// caller leads its own group commit when the file is free (waitOrLead),
// and the background syncer goroutine drains async records, snapshot
// barriers, and anything leaders leave queued.
type Log struct {
	opts Options
	dir  string

	mu      sync.Mutex
	cond    *sync.Cond
	pending []*pendingRec
	seq     uint64 // last assigned seq
	closed  bool
	abort   bool  // drop pending instead of draining (crash simulation)
	err     error // sticky background write error
	writing bool  // a writer (syncer or group-commit leader) holds the file

	// Writer-owned state (guarded by the writing token, not mu).
	f          *os.File
	off        int64 // append offset in the active segment
	alloc      int64 // preallocated capacity of the active segment
	chain      [32]byte
	writtenSeq uint64
	segStart   uint64         // name (last-seq-before) of the active segment
	snapWG     sync.WaitGroup // in-flight background snapshot write

	done chan struct{}

	cAppends   *obs.Counter
	cErrors    *obs.Counter
	cFsyncs    *obs.Counter
	cSnapshots *obs.Counter
	hAppendMs  *obs.Histogram
	hFsyncMs   *obs.Histogram
	hBatch     *obs.Histogram
}

// Open opens (or creates) the log in opts.Dir, recovers its state, and
// returns the log ready for appends plus the replay the application
// must re-apply. Recovery verifies every record's CRC, the hash chain
// and seq contiguity; see the package comment for the failure rules.
func Open(opts Options) (*Log, *Replay, error) {
	if opts.Dir == "" {
		return nil, nil, errors.New("wal: no directory")
	}
	if opts.FsyncEvery < 1 {
		opts.FsyncEvery = 64
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	span := opts.Trace.StartSpan("wal.replay", obs.Str("dir", opts.Dir))
	sc, err := scan(opts.Dir, opts.Repair)
	if err != nil {
		span.End(obs.Str("status", "corrupt"))
		return nil, nil, err
	}
	// Drop the torn/repaired suffix of the last segment, then any
	// segments past a repair point, so the on-disk log is exactly the
	// recovered prefix before new appends land.
	if sc.truncatePath != "" {
		if err := os.Truncate(sc.truncatePath, sc.truncateLen); err != nil {
			return nil, nil, fmt.Errorf("wal: truncate %s: %w", sc.truncatePath, err)
		}
	}
	for _, p := range sc.dropSegments {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return nil, nil, fmt.Errorf("wal: drop %s: %w", p, err)
		}
	}
	l := &Log{
		opts:       opts,
		dir:        opts.Dir,
		seq:        sc.tailSeq,
		chain:      sc.chain,
		writtenSeq: sc.tailSeq,
		segStart:   sc.segStart,
		done:       make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	if reg := opts.Metrics; reg != nil {
		msBounds := []float64{0.05, 0.1, 0.25, 0.5, 1, 2, 5, 10, 25, 50, 100}
		batchBounds := []float64{1, 2, 4, 8, 16, 32, 64, 128}
		l.cAppends = reg.Counter("wal.appends")
		l.cErrors = reg.Counter("wal.append.errors")
		l.cFsyncs = reg.Counter("wal.fsyncs")
		l.cSnapshots = reg.Counter("wal.snapshots")
		l.hAppendMs = reg.Histogram("wal.append.wait.ms", msBounds)
		l.hFsyncMs = reg.Histogram("wal.fsync.ms", msBounds)
		l.hBatch = reg.Histogram("wal.fsync.batch", batchBounds)
		reg.Counter("wal.replay.records").Add(int64(len(sc.replay.Records)))
		reg.Counter("wal.replay.torn.bytes").Add(sc.replay.TornBytes)
		reg.Counter("wal.replay.repaired").Add(int64(sc.replay.Repaired))
	}
	segPath := filepath.Join(opts.Dir, segName(sc.segStart))
	f, err := os.OpenFile(segPath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, err
	}
	l.f = f
	l.off = sc.tailOff
	if st, err := f.Stat(); err == nil {
		l.alloc = st.Size()
	}
	if err := l.grow(l.off + 1); err != nil {
		f.Close()
		return nil, nil, err
	}
	go l.syncer()
	go l.flushTicker()
	span.End(
		obs.Int("snapshot_seq", int64(sc.replay.SnapshotSeq)),
		obs.Int("records", int64(len(sc.replay.Records))),
		obs.Int("torn_bytes", sc.replay.TornBytes),
		obs.Int("repaired", int64(sc.replay.Repaired)),
		obs.Int("tail_seq", int64(sc.tailSeq)))
	return l, sc.replay, nil
}

// Append queues one record and returns its assigned seq without waiting
// for durability (writer-loop records whose loss a replay repairs).
// Async records ride the next group commit — a sync append's batch, a
// snapshot, Close, or at the latest the periodic flush tick — and an
// all-async batch is written without an fsync, so async appends never
// pay or cause a disk flush of their own. A background write failure is
// sticky: it is reported by Err and every later AppendSync.
func (l *Log) Append(typ string, data any) (uint64, error) {
	return l.append(typ, data, nil, false)
}

// AppendSync queues one record and blocks until it (and everything
// queued before it) is fsynced — the durability barrier an admission
// response must pass before committing. onSeq, if non-nil, is invoked
// with the assigned seq while the assignment lock is held, so the
// caller can register the seq atomically with its allocation.
func (l *Log) AppendSync(typ string, data any, onSeq func(uint64)) (uint64, error) {
	return l.append(typ, data, onSeq, true)
}

func (l *Log) append(typ string, data any, onSeq func(uint64), sync bool) (uint64, error) {
	var body json.RawMessage
	if data != nil {
		b, err := json.Marshal(data)
		if err != nil {
			return 0, fmt.Errorf("wal: marshal %s record: %w", typ, err)
		}
		body = b
	}
	start := time.Now()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return 0, err
	}
	l.seq++
	seq := l.seq
	payload, err := json.Marshal(Record{Seq: seq, Type: typ, Data: body})
	if err != nil {
		l.seq--
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: marshal %s envelope: %w", typ, err)
	}
	if onSeq != nil {
		onSeq(seq)
	}
	pr := &pendingRec{payload: payload}
	if sync {
		pr.done = make(chan error, 1)
	}
	l.pending = append(l.pending, pr)
	// Only a backpressured async append wakes the syncer. A sync
	// append's caller is about to lead the write itself (waitOrLead),
	// and waking the syncer would race it for the batch — losing that
	// race costs the caller a scheduler round trip, which on a busy
	// single-CPU host means waiting out whatever slice holds the CPU.
	// Async records carry no durability deadline, so they simply ride
	// the next leader's batch, snapshot, Close, or flush tick instead
	// of waking the syncer once per record.
	if !sync && len(l.pending) >= l.opts.FsyncEvery {
		l.cond.Signal()
	}
	l.mu.Unlock()
	l.cAppends.Inc()
	if !sync {
		return seq, nil
	}
	err = l.waitOrLead(pr)
	l.hAppendMs.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	if err != nil {
		l.cErrors.Inc()
	}
	return seq, err
}

// waitOrLead completes a sync append: when no writer is active the
// calling goroutine becomes the group-commit leader and performs the
// batch write itself — on a small host this skips two scheduler
// handoffs through the background syncer, which otherwise bound submit
// tail latency whenever a long replan slice holds the CPU — and
// otherwise it blocks until the active writer delivers its record's
// durability result. A snapshot barrier at the head of the queue
// belongs to the syncer; leaders never process one.
func (l *Log) waitOrLead(pr *pendingRec) error {
	for {
		select {
		case err := <-pr.done:
			return err
		default:
		}
		l.mu.Lock()
		if l.writing || l.closed || len(l.pending) == 0 || l.pending[0].snap != nil {
			l.mu.Unlock()
			return <-pr.done
		}
		batch, needSync := l.cutBatch()
		l.mu.Unlock()
		l.runBatch(batch, needSync)
		l.mu.Lock()
		l.writing = false
		l.cond.Signal()
		l.mu.Unlock()
	}
}

// flushTicker periodically nudges the syncer so async records never sit
// in memory longer than asyncFlushInterval when no sync append, snapshot
// or Close comes along to flush them.
func (l *Log) flushTicker() {
	t := time.NewTicker(asyncFlushInterval)
	defer t.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.writing && len(l.pending) > 0 {
				l.cond.Signal()
			}
			l.mu.Unlock()
		}
	}
}

// Snapshot persists the application state covering every record with
// seq <= appliedSeq, rotates the log to a fresh segment, and prunes
// segments and snapshots no replay can need. It blocks until the
// rotation is durable; the snapshot file itself is written by a
// background goroutine (a failure there is sticky, reported by Err and
// later AppendSyncs) so appends resume immediately, and Close waits for
// it. Until the file lands, recovery simply anchors on the previous
// snapshot. appliedSeq may lag the tail (records after it
// are simply replayed on top of the state), but must not exceed it.
func (l *Log) Snapshot(appliedSeq uint64, state any) error {
	stateBytes, err := json.Marshal(state)
	if err != nil {
		return fmt.Errorf("wal: marshal snapshot state: %w", err)
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if appliedSeq > l.seq {
		seq := l.seq
		l.mu.Unlock()
		return fmt.Errorf("wal: snapshot applied seq %d beyond tail %d", appliedSeq, seq)
	}
	req := &snapReq{appliedSeq: appliedSeq, state: stateBytes, done: make(chan error, 1)}
	l.pending = append(l.pending, &pendingRec{snap: req})
	l.cond.Signal()
	l.mu.Unlock()
	return <-req.done
}

// Seq returns the last assigned sequence number.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Chain returns the hash-chain value at the last written record.
func (l *Log) Chain() [32]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.chain
}

// Err returns the sticky background write error, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close drains every pending append, fsyncs, and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.cond.Signal()
	l.mu.Unlock()
	<-l.done
	return l.Err()
}

// Abort simulates a crash for tests: pending (unwritten) appends are
// dropped and the file is closed without a final fsync — exactly the
// state a kill -9 leaves behind. Records already handed to the OS
// survive; queued ones do not.
func (l *Log) Abort() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.abort = true
	for _, p := range l.pending {
		if p.done != nil {
			p.done <- ErrClosed
		}
		if p.snap != nil {
			p.snap.done <- ErrClosed
		}
	}
	l.pending = nil
	l.cond.Signal()
	l.mu.Unlock()
	<-l.done
}

// syncer is the fallback writer goroutine: it drains whatever the
// group-commit leaders (AppendSync callers, see waitOrLead) leave
// behind — async writer-loop records, snapshot barriers, the final
// drain on Close — one exclusive batch at a time under the writing
// token shared with the leaders.
func (l *Log) syncer() {
	defer close(l.done)
	for {
		l.mu.Lock()
		for l.writing || (len(l.pending) == 0 && !l.closed) {
			l.cond.Wait()
		}
		if len(l.pending) == 0 || l.abort {
			closed := l.closed
			l.mu.Unlock()
			if closed {
				if !l.abort {
					l.sync()
					// Release the preallocated zero tail: a cleanly
					// closed segment is exactly its records. A crash
					// skips this, and scan treats the zero tail as a
					// clean end; the truncation is cosmetic, so its
					// durability (and failure) does not matter.
					l.f.Truncate(l.off)
				}
				l.snapWG.Wait()
				l.f.Close()
				return
			}
			continue
		}
		if snap := l.pending[0].snap; snap != nil {
			// A snapshot barrier is processed alone.
			l.pending = l.pending[1:]
			l.writing = true
			l.mu.Unlock()
			err := l.startSnapshot(snap)
			if err != nil {
				l.fail(err)
			}
			snap.done <- err
		} else {
			batch, needSync := l.cutBatch()
			l.mu.Unlock()
			l.runBatch(batch, needSync)
		}
		l.mu.Lock()
		l.writing = false
		l.cond.Signal()
		l.mu.Unlock()
	}
}

// cutBatch splices up to FsyncEvery records off the head of the pending
// queue (stopping before any snapshot barrier) and takes the writing
// token. Called with l.mu held and a non-snap record at the head.
// needSync reports whether anyone in the batch is blocked on
// durability: an all-async batch is written but not flushed — written
// bytes survive a process kill (the crash model the service recovers
// from), the next sync-bearing batch, snapshot, or Close covers them,
// and a machine-failure torn tail is the artifact replay already
// truncates.
func (l *Log) cutBatch() (batch []*pendingRec, needSync bool) {
	n := len(l.pending)
	if n > l.opts.FsyncEvery {
		n = l.opts.FsyncEvery
	}
	for i := 0; i < n; i++ {
		if l.pending[i].snap != nil {
			n = i
			break
		}
	}
	batch = append([]*pendingRec(nil), l.pending[:n]...)
	l.pending = l.pending[n:]
	l.writing = true
	for _, p := range batch {
		if p.done != nil {
			needSync = true
			break
		}
	}
	return batch, needSync
}

// runBatch writes one exclusive batch and delivers the result to every
// durability waiter in it. Called with the writing token held.
func (l *Log) runBatch(batch []*pendingRec, needSync bool) {
	err := l.writeBatch(batch, needSync)
	if err != nil {
		l.fail(err)
	}
	for _, p := range batch {
		if p.done != nil {
			p.done <- err
		}
	}
}

// writeBatch frames and writes the batch into the preallocated segment,
// then flushes once. The chain is advanced on a local copy and
// published under the lock so Chain() readers never race the write
// path.
func (l *Log) writeBatch(batch []*pendingRec, needSync bool) error {
	var buf []byte
	chain := l.chain
	for _, p := range batch {
		chain = sha256.Sum256(append(chain[:], p.payload...))
		buf = appendFrame(buf, p.payload, chain)
	}
	if err := l.grow(l.off + int64(len(buf))); err != nil {
		return err
	}
	if _, err := l.f.WriteAt(buf, l.off); err != nil {
		return fmt.Errorf("wal: write: %w", err)
	}
	l.off += int64(len(buf))
	if needSync {
		if err := l.sync(); err != nil {
			return err
		}
	}
	l.mu.Lock()
	l.chain = chain
	l.mu.Unlock()
	l.writtenSeq += uint64(len(batch))
	l.hBatch.Observe(float64(len(batch)))
	return nil
}

// grow ensures the active segment has durable allocated capacity up to
// need bytes (rounded up to whole preallocation units). Growth beyond
// the initial preallocation is rare — a segment outlives preallocBytes
// only when snapshots stall — but the allocation metadata must be
// flushed before the data lands: an acknowledged record beyond a lost
// size update would vanish with the crash.
func (l *Log) grow(need int64) error {
	if need <= l.alloc {
		return nil
	}
	size := l.alloc
	if size < preallocBytes {
		size = preallocBytes
	}
	for size < need {
		size += preallocBytes
	}
	if err := preallocate(l.f, size); err != nil {
		return fmt.Errorf("wal: preallocate: %w", err)
	}
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
	}
	l.alloc = size
	return nil
}

// sync makes every written record durable. Appends stay inside the
// preallocated extent, so fdatasync has no metadata to flush and does
// not serialize on the filesystem journal (see preallocBytes).
func (l *Log) sync() error {
	if l.opts.NoSync {
		return nil
	}
	t0 := time.Now()
	if err := datasync(l.f); err != nil {
		return fmt.Errorf("wal: fdatasync: %w", err)
	}
	l.cFsyncs.Inc()
	l.hFsyncMs.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	return nil
}

// fail records a sticky background error and emits it once.
func (l *Log) fail(err error) {
	l.mu.Lock()
	first := l.err == nil
	if first {
		l.err = err
	}
	l.mu.Unlock()
	if first {
		l.cErrors.Inc()
		l.opts.Trace.Emit("wal.error", obs.Str("err", err.Error()))
	}
}

// startSnapshot runs the synchronous half of a snapshot — flush the
// active segment so the captured chain position is durable, rotate to a
// fresh segment named by the tail seq — then hands the snapshot file
// write to a background goroutine so queued appends never stall behind
// its fsyncs. Crash safety does not depend on the async half landing:
// until the snapshot file is renamed into place, recovery anchors on
// the previous snapshot and replays straight across the new segment
// boundary (scan verifies the chain through every kept segment), and
// prune runs only after the new snapshot is durable.
func (l *Log) startSnapshot(req *snapReq) error {
	l.snapWG.Wait() // at most one snapshot write in flight
	if err := l.sync(); err != nil {
		return err
	}
	tail, chain := l.writtenSeq, l.chain
	// Rotate (unless the active segment is already named by this tail,
	// which happens when a snapshot is taken with zero new records).
	if tail != l.segStart {
		nf, err := os.OpenFile(filepath.Join(l.dir, segName(tail)),
			os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if err := preallocate(nf, preallocBytes); err != nil {
			nf.Close()
			return fmt.Errorf("wal: preallocate: %w", err)
		}
		if !l.opts.NoSync {
			if err := nf.Sync(); err != nil {
				nf.Close()
				return fmt.Errorf("wal: fsync: %w", err)
			}
		}
		if err := fsyncDir(l.dir, l.opts.NoSync); err != nil {
			nf.Close()
			return err
		}
		// Release the old segment's zero tail (cosmetic; a failure or a
		// crash before the truncation is durable just leaves zeros that
		// scan treats as a clean end).
		l.f.Truncate(l.off)
		l.f.Close()
		l.f = nf
		l.off, l.alloc = 0, preallocBytes
		l.segStart = tail
	}
	l.snapWG.Add(1)
	go func() {
		defer l.snapWG.Done()
		if err := l.writeSnapshotFile(req, tail, chain); err != nil {
			l.fail(err)
		}
	}()
	return nil
}

// writeSnapshotFile persists the snapshot file durably (tmp + fsync +
// rename + dir fsync) and prunes files every future replay has
// outgrown. It runs off the append path; a failure is sticky via fail.
func (l *Log) writeSnapshotFile(req *snapReq, tail uint64, chain [32]byte) error {
	payload, err := json.Marshal(snapPayload{
		AppliedSeq: req.appliedSeq,
		TailSeq:    tail,
		State:      req.state,
	})
	if err != nil {
		return fmt.Errorf("wal: marshal snapshot: %w", err)
	}
	frame := appendFrame(nil, payload, chain)
	path := filepath.Join(l.dir, snapName(tail))
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, frame, l.opts.NoSync); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: rename snapshot: %w", err)
	}
	if err := fsyncDir(l.dir, l.opts.NoSync); err != nil {
		return err
	}
	l.cSnapshots.Inc()
	l.opts.Trace.Emit("wal.snapshot",
		obs.Int("applied_seq", int64(req.appliedSeq)),
		obs.Int("tail_seq", int64(tail)),
		obs.Int("state_bytes", int64(len(req.state))))
	l.prune(req.appliedSeq)
	return nil
}

// prune removes segments every future replay has outgrown (their last
// record is covered by the newest snapshot) and snapshots older than
// the earliest kept segment's chain anchor.
func (l *Log) prune(appliedSeq uint64) {
	segs, snaps, err := listFiles(l.dir)
	if err != nil {
		return
	}
	segSeqs := sortedKeys(segs)
	earliest := uint64(0)
	for i, s := range segSeqs {
		// Segment s covers (s, next]; prunable once next <= appliedSeq.
		if i+1 < len(segSeqs) && segSeqs[i+1] <= appliedSeq {
			os.Remove(segs[s])
			continue
		}
		if earliest == 0 || s < earliest {
			earliest = s
		}
		break
	}
	for s, p := range snaps {
		if s < earliest {
			os.Remove(p)
		}
	}
}

// snapPayload is the snapshot file's JSON body.
type snapPayload struct {
	AppliedSeq uint64          `json:"applied_seq"`
	TailSeq    uint64          `json:"tail_seq"`
	State      json.RawMessage `json:"state"`
}

func segName(seq uint64) string  { return fmt.Sprintf("%s%016d%s", segPrefix, seq, segSuffix) }
func snapName(seq uint64) string { return fmt.Sprintf("%s%016d%s", snapPrefix, seq, snapSuffix) }

func appendFrame(buf, payload []byte, chain [32]byte) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	copy(hdr[8:], chain[:])
	return append(append(buf, hdr[:]...), payload...)
}

func writeFileSync(path string, b []byte, noSync bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if !noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func fsyncDir(dir string, noSync bool) error {
	if noSync {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// HasLog reports whether dir holds segment or snapshot files.
func HasLog(dir string) (bool, error) {
	segs, snaps, err := listFiles(dir)
	return len(segs)+len(snaps) > 0, err
}

// listFiles maps segment and snapshot sequence numbers to paths.
func listFiles(dir string) (segs, snaps map[uint64]string, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	segs, snaps = map[uint64]string{}, map[uint64]string{}
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix):
			var n uint64
			if _, err := fmt.Sscanf(name, segPrefix+"%d", &n); err == nil {
				segs[n] = filepath.Join(dir, name)
			}
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
			var n uint64
			if _, err := fmt.Sscanf(name, snapPrefix+"%d", &n); err == nil {
				snaps[n] = filepath.Join(dir, name)
			}
		}
	}
	return segs, snaps, nil
}

func sortedKeys(m map[uint64]string) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ChainHex renders a chain value for display.
func ChainHex(c [32]byte) string { return hex.EncodeToString(c[:]) }
