package schedd

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

// refBucket is the reference admission limiter: the flat per-source
// token bucket that the weighted limiter generalizes, kept verbatim so
// unit weights can be checked decision for decision against it.
type refBucket struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
}

func newRefBucket(rate float64, burst int) *refBucket {
	if burst < 1 {
		burst = 1
	}
	return &refBucket{rate: rate, burst: float64(burst), buckets: map[string]*bucket{}}
}

func (rl *refBucket) allow(source string, now time.Time) (bool, time.Duration) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b, ok := rl.buckets[source]
	if !ok {
		b = &bucket{tokens: rl.burst, last: now}
		rl.buckets[source] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * rl.rate
	if b.tokens > rl.burst {
		b.tokens = rl.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / rl.rate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return false, wait
}

// With unit weights the limiter is the per-source token bucket: over
// seeded random arrival sequences on a scripted clock it agrees with the
// reference on every decision and every Retry-After. Every fourth seed
// adds a long tail of sources that pushes the bucket map past its
// pruning bound.
func TestLimiterMatchesTokenBucket(t *testing.T) {
	epoch := time.Unix(1_700_000_000, 0)
	for seed := uint64(1); seed <= 24; seed++ {
		r := stats.NewRand(seed)
		rate := 0.5 + 20*r.Float64()
		burst := 1 + r.Intn(8)
		sources, tail := 1+r.Intn(6), 0
		if seed%4 == 0 {
			tail = 3000
		}
		got, want := newLimiter(rate, burst, nil), newRefBucket(rate, burst)
		now := epoch
		admitted := 0
		for i := 0; i < 4000; i++ {
			now = now.Add(time.Duration(r.Intn(int(10 * time.Millisecond))))
			src := fmt.Sprintf("s%d", r.Intn(sources))
			if tail > 0 && r.Intn(2) == 0 {
				src = fmt.Sprintf("tail%d", r.Intn(tail))
			}
			okG, waitG := got.allow(src, now)
			okW, waitW := want.allow(src, now)
			if okG != okW || waitG != waitW {
				t.Fatalf("seed %d arrival %d (%s): limiter (%v, %v), token bucket (%v, %v)",
					seed, i, src, okG, waitG, okW, waitW)
			}
			if okG {
				admitted++
			}
		}
		if tail > 0 && len(got.buckets) >= len(want.buckets) {
			t.Fatalf("seed %d: %d buckets kept of %d sources seen; the limiter never pruned", seed, len(got.buckets), len(want.buckets))
		}
		if admitted == 0 || admitted == 4000 {
			t.Fatalf("seed %d: %d of 4000 admitted; the sequence never exercised the limit", seed, admitted)
		}
	}
}

// A weight scales one source's own bucket: under the same backlogged
// offered load a weight-4 source is admitted four times as often as a
// weight-1 source, and the weight-1 source gets exactly its own rate.
func TestLimiterWeights(t *testing.T) {
	const (
		rate  = 10.0
		burst = 2
		secs  = 10
	)
	l := newLimiter(rate, burst, map[string]float64{"heavy": 4})
	now := time.Unix(1_700_000_000, 0)
	admitted := map[string]int{}
	// Each source offers 200 submissions per second, well above
	// 4·rate, for secs seconds.
	for i := 0; i < 200*secs; i++ {
		now = now.Add(5 * time.Millisecond)
		for _, src := range []string{"light", "heavy"} {
			if ok, _ := l.allow(src, now); ok {
				admitted[src]++
			}
		}
	}
	light, heavy := admitted["light"], admitted["heavy"]
	if want := burst + rate*secs; math.Abs(float64(light)-want) > 1 {
		t.Errorf("weight-1 source admitted %d, want %.0f ± 1", light, want)
	}
	if math.Abs(float64(heavy)-4*float64(light)) > 4 {
		t.Errorf("weight-4 source admitted %d, weight-1 source %d: want a 4:1 ratio", heavy, light)
	}
}
