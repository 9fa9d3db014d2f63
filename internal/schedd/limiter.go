package schedd

import (
	"sync"
	"time"
)

// limiter is the per-source admission limiter: a token bucket per
// source that refills at rate·weight tokens per wall second up to
// burst·weight, where a submission spends one token. Sources never share
// capacity, so the admitted total grows with the number of sources; the
// weight only scales one source's own bucket. A nil limiter admits
// everything.
type limiter struct {
	rate    float64
	burst   float64
	weights map[string]float64

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxIdleBuckets bounds the bucket map: past it, allow drops the buckets
// that have refilled completely, which a fresh bucket reproduces exactly.
const maxIdleBuckets = 1024

// newLimiter returns nil (admit everything) when rate <= 0. Weights
// default to 1 for unlisted sources; burst defaults to 1.
func newLimiter(rate float64, burst int, weights map[string]float64) *limiter {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &limiter{rate: rate, burst: float64(burst), weights: weights, buckets: map[string]*bucket{}}
}

// weight returns the source's bucket scale (1 unless configured > 0).
func (l *limiter) weight(source string) float64 {
	if w, ok := l.weights[source]; ok && w > 0 {
		return w
	}
	return 1
}

// allow reports whether source may submit now, and if not, how long to
// wait for the next token (the Retry-After hint).
func (l *limiter) allow(source string, now time.Time) (bool, time.Duration) {
	if l == nil {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buckets) > maxIdleBuckets {
		for s, b := range l.buckets {
			w := l.weight(s)
			if b.tokens+now.Sub(b.last).Seconds()*l.rate*w >= l.burst*w {
				delete(l.buckets, s)
			}
		}
	}
	w := l.weight(source)
	rate, burst := l.rate*w, l.burst*w
	b, ok := l.buckets[source]
	if !ok {
		b = &bucket{tokens: burst, last: now}
		l.buckets[source] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * rate
	if b.tokens > burst {
		b.tokens = burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / rate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return false, wait
}
