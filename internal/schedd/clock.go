// Clock abstraction of the scheduling service: the replan loop and the
// API report times in virtual seconds (the trace time base of the rest
// of the repository), while timers run on the wall clock. A WallClock
// with Accel > 1 compresses trace time so the same service core serves
// live traffic (Accel 1) and accelerated replay.
package schedd

import (
	"sync/atomic"
	"time"
)

// Clock maps between virtual trace seconds and wall time.
type Clock interface {
	// Now returns the current virtual time in seconds.
	Now() int64
	// Until returns the wall-clock duration until virtual instant v
	// (zero or negative when v is not in the future).
	Until(v int64) time.Duration
}

// WallClock derives virtual time from the wall clock: virtual second v
// is reached Accel times faster than real time. The zero Accel means 1
// (live time). The epoch is atomic so Resume can rebase a restarted
// service onto its recovered virtual time while readers keep calling
// Now.
type WallClock struct {
	epochNano atomic.Int64
	accel     float64
}

// NewWallClock starts a wall-backed virtual clock at virtual second 0.
func NewWallClock(accel float64) *WallClock {
	if accel <= 0 {
		accel = 1
	}
	c := &WallClock{accel: accel}
	c.epochNano.Store(time.Now().UnixNano())
	return c
}

// Accel returns the acceleration factor.
func (c *WallClock) Accel() float64 { return c.accel }

// Now returns elapsed wall seconds times the acceleration factor.
func (c *WallClock) Now() int64 {
	elapsed := time.Duration(time.Now().UnixNano() - c.epochNano.Load())
	return int64(elapsed.Seconds() * c.accel)
}

// Resume rebases the clock so Now() reads v right now — how WAL
// recovery continues the crashed process's virtual timeline instead of
// restarting trace time from zero (planned starts recovered from the
// log would otherwise wait out a whole replayed epoch).
func (c *WallClock) Resume(v int64) {
	off := time.Duration(float64(v) / c.accel * float64(time.Second))
	c.epochNano.Store(time.Now().Add(-off).UnixNano())
}

// Until converts a virtual deadline into a wall duration.
func (c *WallClock) Until(v int64) time.Duration {
	d := time.Duration(float64(v-c.Now()) / c.accel * float64(time.Second))
	if d < 0 {
		return 0
	}
	return d
}

// ManualClock is a test clock: virtual time only moves via Set/Advance,
// so a service driven by it reacts to submissions alone and never fires
// completion or start timers on its own (Until reports a far-future
// wall duration for any instant beyond Now).
type ManualClock struct {
	now atomic.Int64
}

// NewManualClock returns a manual clock at virtual second v.
func NewManualClock(v int64) *ManualClock {
	c := &ManualClock{}
	c.now.Store(v)
	return c
}

// Now returns the manually set virtual time.
func (c *ManualClock) Now() int64 { return c.now.Load() }

// Set moves virtual time to v.
func (c *ManualClock) Set(v int64) { c.now.Store(v) }

// Advance moves virtual time forward by d seconds.
func (c *ManualClock) Advance(d int64) { c.now.Add(d) }

// Until returns an hour for future instants so that manual-clock timers
// effectively never fire by themselves; tests advance the clock and
// poke the service instead.
func (c *ManualClock) Until(v int64) time.Duration {
	if v <= c.Now() {
		return 0
	}
	return time.Hour
}
