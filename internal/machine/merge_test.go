package machine

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/stats"
)

// refShift is the whole-profile algorithm Reserve and Release replaced:
// check, split at both ends, shift every segment in [start, end) by delta,
// then normalize the entire profile.
func refShift(p *Profile, start, end int64, delta int) bool {
	for i := p.segmentAt(start); i < len(p.steps) && p.steps[i].Time < end; i++ {
		if f := p.steps[i].Free + delta; f < 0 || f > p.total {
			return false
		}
	}
	lo, hi := splitAt(p, start), len(p.steps)
	if end != Horizon {
		hi = splitAt(p, end)
	}
	for i := lo; i < hi; i++ {
		p.steps[i].Free += delta
	}
	p.normalize()
	return true
}

// splitAt ensures a step boundary exists exactly at time t and returns its
// index.
func splitAt(p *Profile, t int64) int {
	i := p.segmentAt(t)
	if p.steps[i].Time == t {
		return i
	}
	p.steps = slices.Insert(p.steps, i+1, Step{Time: t, Free: p.steps[i].Free})
	return i + 1
}

// Property: random Reserve/Release sequences — width 0, open-ended
// intervals, and intervals starting or ending on existing steps — keep the
// profile valid and identical to the whole-profile reference.
func TestLocalMergeMatchesWholeNormalize(t *testing.T) {
	const total = 16
	r := stats.NewRand(7)
	for trial := 0; trial < 200; trial++ {
		p, ref := New(total, 0), New(total, 0)
		type iv struct {
			start, end int64
			w          int
		}
		var held []iv
		for op := 0; op < 60; op++ {
			// Endpoints: half the time an existing step time.
			pick := func() int64 {
				if r.Intn(2) == 0 {
					return p.steps[r.Intn(len(p.steps))].Time
				}
				return int64(r.Intn(400))
			}
			var cur iv
			release := len(held) > 0 && r.Intn(3) == 0
			if release {
				k := r.Intn(len(held))
				cur = held[k]
				held = append(held[:k], held[k+1:]...)
			} else {
				cur = iv{start: pick(), w: r.Intn(6)}
				if r.Intn(8) == 0 {
					cur.w = 0
				}
				switch {
				case r.Intn(10) == 0:
					cur.end = Horizon
				default:
					cur.end = pick()
					if cur.end <= cur.start {
						cur.end = cur.start + int64(r.Intn(50)+1)
					}
				}
			}
			var err error
			var refOK bool
			if release {
				err = p.Release(cur.start, cur.end, cur.w)
				refOK = refShift(ref, cur.start, cur.end, cur.w)
			} else {
				err = p.Reserve(cur.start, cur.end, cur.w)
				refOK = refShift(ref, cur.start, cur.end, -cur.w)
				if err == nil {
					held = append(held, cur)
				}
			}
			if (err == nil) != refOK {
				t.Fatalf("trial %d op %d %+v: error %v, reference ok %v", trial, op, cur, err, refOK)
			}
			if !slices.Equal(p.steps, ref.steps) {
				t.Fatalf("trial %d op %d %+v: steps %v, reference %v", trial, op, cur, p.steps, ref.steps)
			}
			openEnded := false
			for _, h := range held {
				openEnded = openEnded || h.end == Horizon && h.w > 0
			}
			if err := p.Validate(); err != nil && !(openEnded && strings.Contains(err.Error(), "open-ended")) {
				t.Fatalf("trial %d op %d %+v: %v (steps %v)", trial, op, cur, err, p.steps)
			}
		}
	}
}

// Property: Place gives the start EarliestFit gives and leaves the steps
// EarliestFit+Reserve (and the whole-profile reference) leave — for width 0, too-wide jobs, earliest before
// the origin, windows starting or ending exactly on an existing step and
// windows reaching the last segment.
func TestPlaceMatchesEarliestFitReserve(t *testing.T) {
	const total, origin = 16, 100
	r := stats.NewRand(11)
	for trial := 0; trial < 200; trial++ {
		p := New(total, origin)
		for op := 0; op < 60; op++ {
			stepTime := func() int64 { return p.steps[r.Intn(len(p.steps))].Time }
			earliest := origin + int64(r.Intn(400)) - 50
			switch r.Intn(4) {
			case 0:
				earliest = stepTime()
			case 1:
				earliest = int64(r.Intn(origin)) // before the origin
			}
			dur := int64(r.Intn(120) + 1)
			switch r.Intn(4) {
			case 0: // end on an existing step when one lies ahead
				if st := stepTime(); st > max(earliest, origin) {
					dur = st - max(earliest, origin)
				}
			case 1: // reach past the last step
				dur = p.steps[len(p.steps)-1].Time - origin + int64(r.Intn(50)+1)
			}
			w := r.Intn(8)
			switch r.Intn(10) {
			case 0:
				w = 0
			case 1:
				w = total + 1 + r.Intn(3)
			}
			ref, whole := p.Clone(), p.Clone()
			wantStart, wantOK := ref.EarliestFit(earliest, dur, w)
			if wantOK {
				if err := ref.Reserve(wantStart, wantStart+dur, w); err != nil {
					t.Fatalf("trial %d op %d: reference reserve: %v", trial, op, err)
				}
				refShift(whole, wantStart, wantStart+dur, -w)
			}
			start, ok := p.Place(earliest, dur, w)
			if start != wantStart || ok != wantOK {
				t.Fatalf("trial %d op %d Place(%d, %d, %d) = %d, %v; want %d, %v (steps %v)",
					trial, op, earliest, dur, w, start, ok, wantStart, wantOK, ref.steps)
			}
			if !slices.Equal(p.steps, ref.steps) || !slices.Equal(p.steps, whole.steps) {
				t.Fatalf("trial %d op %d Place(%d, %d, %d): steps %v, Reserve %v, whole-profile %v",
					trial, op, earliest, dur, w, p.steps, ref.steps, whole.steps)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("trial %d op %d: %v (steps %v)", trial, op, err, p.steps)
			}
		}
	}
}

// refHistory is the map-based HistoryFromRunning that the sorted-slice
// version replaced (error paths aside).
func refHistory(total int, now int64, running []Running) History {
	busy := 0
	ends := map[int64]int{}
	for _, r := range running {
		if r.End <= now {
			continue
		}
		busy += r.Width
		ends[r.End] += r.Width
	}
	h := History{{Time: now, Free: total - busy}}
	times := make([]int64, 0, len(ends))
	for t := range ends {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	free := total - busy
	for _, t := range times {
		free += ends[t]
		h = append(h, Step{Time: t, Free: free})
	}
	return h
}

// Repeated end times, unsorted and sorted input, and already-ended jobs
// produce the map-based history, and the caller's slice is left as is.
func TestHistoryFromRunningMatchesMapReference(t *testing.T) {
	r := stats.NewRand(3)
	for trial := 0; trial < 500; trial++ {
		const now, total = 100, 64
		n := r.Intn(12)
		running := make([]Running, n)
		for i := range running {
			running[i] = Running{JobID: i + 1, Width: r.Intn(5) + 1, End: now - 20 + int64(r.Intn(60))}
		}
		if r.Intn(2) == 0 {
			slices.SortFunc(running, func(a, b Running) int { return int(a.End - b.End) })
		}
		in := slices.Clone(running)
		h, err := HistoryFromRunning(total, now, running)
		if err != nil {
			t.Fatal(err)
		}
		if want := refHistory(total, now, running); !slices.Equal(h, want) {
			t.Fatalf("trial %d: history %v, reference %v (input %v)", trial, h, want, running)
		}
		if !slices.Equal(in, running) {
			t.Fatalf("trial %d: input reordered to %v", trial, running)
		}
	}
}
