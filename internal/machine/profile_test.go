package machine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestNewProfile(t *testing.T) {
	p := New(16, 0)
	if p.Total() != 16 || p.Origin() != 0 || p.FreeAt(0) != 16 || p.FreeAt(1<<40) != 16 {
		t.Fatalf("fresh profile wrong: %+v", p.Steps())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0, 0)
}

func TestReserveAndFreeAt(t *testing.T) {
	p := New(10, 0)
	if err := p.Reserve(5, 15, 4); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		t    int64
		want int
	}{{0, 10}, {4, 10}, {5, 6}, {14, 6}, {15, 10}, {100, 10}}
	for _, c := range cases {
		if got := p.FreeAt(c.t); got != c.want {
			t.Fatalf("FreeAt(%d) = %d, want %d", c.t, got, c.want)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReserveOverlap(t *testing.T) {
	p := New(10, 0)
	mustReserve(t, p, 0, 10, 4)
	mustReserve(t, p, 5, 20, 6)
	if got := p.FreeAt(7); got != 0 {
		t.Fatalf("FreeAt(7) = %d, want 0", got)
	}
	if err := p.Reserve(6, 8, 1); err == nil {
		t.Fatal("overbooking accepted")
	}
	// Failed reserve must not modify the profile.
	if got := p.FreeAt(12); got != 4 {
		t.Fatalf("failed reserve mutated profile: FreeAt(12) = %d", got)
	}
}

func TestReserveErrors(t *testing.T) {
	p := New(10, 100)
	if err := p.Reserve(50, 60, 1); err == nil {
		t.Fatal("reserve before origin accepted")
	}
	if err := p.Reserve(200, 200, 1); err == nil {
		t.Fatal("empty reservation accepted")
	}
	if err := p.Reserve(200, 210, -1); err == nil {
		t.Fatal("negative width accepted")
	}
}

func TestReleaseInverseOfReserve(t *testing.T) {
	p := New(8, 0)
	mustReserve(t, p, 10, 30, 5)
	mustReserve(t, p, 20, 40, 3)
	if err := p.Release(10, 30, 5); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(20, 40, 3); err != nil {
		t.Fatal(err)
	}
	steps := p.Steps()
	if len(steps) != 1 || steps[0].Free != 8 {
		t.Fatalf("release did not restore profile: %+v", steps)
	}
}

func TestReleaseOverflow(t *testing.T) {
	p := New(8, 0)
	if err := p.Release(0, 10, 1); err == nil {
		t.Fatal("release beyond machine size accepted")
	}
}

func TestEarliestFit(t *testing.T) {
	p := New(10, 0)
	mustReserve(t, p, 0, 100, 8) // only 2 free until 100

	if s, ok := p.EarliestFit(0, 50, 2); !ok || s != 0 {
		t.Fatalf("narrow job: got (%d,%v), want (0,true)", s, ok)
	}
	if s, ok := p.EarliestFit(0, 50, 3); !ok || s != 100 {
		t.Fatalf("wide job: got (%d,%v), want (100,true)", s, ok)
	}
	if _, ok := p.EarliestFit(0, 50, 11); ok {
		t.Fatal("job wider than machine fitted")
	}
	// earliest inside a blocked region
	if s, ok := p.EarliestFit(40, 10, 5); !ok || s != 100 {
		t.Fatalf("blocked start: got (%d,%v), want (100,true)", s, ok)
	}
	// earliest before origin is clamped
	if s, ok := p.EarliestFit(-50, 10, 2); !ok || s != 0 {
		t.Fatalf("pre-origin start: got (%d,%v), want (0,true)", s, ok)
	}
}

func TestEarliestFitGap(t *testing.T) {
	// A hole between two reservations that is too short for the job:
	// the search must skip over it.
	p := New(4, 0)
	mustReserve(t, p, 0, 100, 3)   // 1 free
	mustReserve(t, p, 150, 300, 3) // 1 free again
	// width 2 fits in [100,150) only for jobs <= 50s
	if s, ok := p.EarliestFit(0, 50, 2); !ok || s != 100 {
		t.Fatalf("short job: got (%d,%v), want (100,true)", s, ok)
	}
	if s, ok := p.EarliestFit(0, 51, 2); !ok || s != 300 {
		t.Fatalf("long job: got (%d,%v), want (300,true)", s, ok)
	}
}

func TestEarliestFitDurationPanic(t *testing.T) {
	p := New(4, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("zero duration did not panic")
		}
	}()
	p.EarliestFit(0, 0, 1)
}

func TestUtilized(t *testing.T) {
	p := New(10, 0)
	mustReserve(t, p, 10, 20, 4)
	if got := p.Utilized(0, 30); got != 40 {
		t.Fatalf("Utilized = %d, want 40", got)
	}
	if got := p.Utilized(15, 18); got != 12 {
		t.Fatalf("partial Utilized = %d, want 12", got)
	}
	if got := p.Utilized(30, 10); got != 0 {
		t.Fatalf("inverted window Utilized = %d, want 0", got)
	}
}

func TestClone(t *testing.T) {
	p := New(10, 0)
	mustReserve(t, p, 0, 10, 5)
	c := p.Clone()
	mustReserve(t, c, 0, 10, 5)
	if p.FreeAt(5) != 5 {
		t.Fatal("clone shares memory with original")
	}
	if c.FreeAt(5) != 0 {
		t.Fatal("clone reserve failed")
	}
}

func mustReserve(t *testing.T, p *Profile, start, end int64, w int) {
	t.Helper()
	if err := p.Reserve(start, end, w); err != nil {
		t.Fatal(err)
	}
}

// Property: after any sequence of successful reservations, Validate holds
// and FreeAt never goes negative; EarliestFit results can actually be
// reserved.
func TestProfileProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := stats.NewRand(seed)
		p := New(32, 0)
		for k := 0; k < int(n%40); k++ {
			dur := int64(r.Intn(500) + 1)
			w := r.Intn(32) + 1
			earliest := int64(r.Intn(1000))
			s, ok := p.EarliestFit(earliest, dur, w)
			if !ok {
				return false // width <= 32 always fits eventually
			}
			if s < earliest {
				return false
			}
			if err := p.Reserve(s, s+dur, w); err != nil {
				return false // EarliestFit promised a fit
			}
			if err := p.Validate(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: EarliestFit returns the *earliest* feasible start: starting
// one second earlier must be infeasible (unless already at the earliest
// bound).
func TestEarliestFitMinimality(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		p := New(16, 0)
		for k := 0; k < 15; k++ {
			dur := int64(r.Intn(200) + 1)
			w := r.Intn(16) + 1
			s, _ := p.EarliestFit(0, dur, w)
			p.Reserve(s, s+dur, w)
		}
		dur := int64(r.Intn(200) + 1)
		w := r.Intn(16) + 1
		s, ok := p.EarliestFit(0, dur, w)
		if !ok {
			return false
		}
		if s == 0 {
			return true
		}
		// A start at s-1 must fail: some second in [s-1, s-1+dur) lacks w.
		for tt := s - 1; tt < s-1+dur; tt++ {
			if p.FreeAt(tt) < w {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryFromRunning(t *testing.T) {
	running := []Running{
		{JobID: 1, Width: 4, End: 100},
		{JobID: 2, Width: 2, End: 100}, // same end: single time stamp
		{JobID: 3, Width: 3, End: 250},
		{JobID: 4, Width: 1, End: 5}, // already finished
	}
	h, err := HistoryFromRunning(10, 10, running)
	if err != nil {
		t.Fatal(err)
	}
	want := History{{10, 1}, {100, 7}, {250, 10}}
	if len(h) != len(want) {
		t.Fatalf("history length %d, want %d: %+v", len(h), len(want), h)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("step %d = %+v, want %+v", i, h[i], want[i])
		}
	}
	if !h.Monotone() {
		t.Fatal("history not monotone")
	}
}

func TestHistoryErrors(t *testing.T) {
	if _, err := HistoryFromRunning(4, 0, []Running{{JobID: 1, Width: 5, End: 10}}); err == nil {
		t.Fatal("overcommitted running set accepted")
	}
	if _, err := HistoryFromRunning(4, 0, []Running{{JobID: 1, Width: 0, End: 10}}); err == nil {
		t.Fatal("zero-width running job accepted")
	}
}

func TestHistoryProfileRoundTrip(t *testing.T) {
	running := []Running{{JobID: 1, Width: 4, End: 100}, {JobID: 2, Width: 2, End: 60}}
	h, err := HistoryFromRunning(8, 0, running)
	if err != nil {
		t.Fatal(err)
	}
	p := h.Profile(8)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.FreeAt(0) != 2 || p.FreeAt(60) != 4 || p.FreeAt(100) != 8 {
		t.Fatalf("profile from history wrong: %+v", p.Steps())
	}
}

func TestHistoryString(t *testing.T) {
	h := History{{0, 3}, {50, 8}}
	s := h.String()
	if s == "" || !containsAll(s, "time [sec.]", "free resources", "50", "8") {
		t.Fatalf("bad history rendering:\n%s", s)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, x := range subs {
		found := false
		for i := 0; i+len(x) <= len(s); i++ {
			if s[i:i+len(x)] == x {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func BenchmarkEarliestFit(b *testing.B) {
	r := stats.NewRand(1)
	p := New(430, 0)
	for k := 0; k < 200; k++ {
		dur := int64(r.Intn(5000) + 60)
		w := r.Intn(64) + 1
		s, _ := p.EarliestFit(0, dur, w)
		p.Reserve(s, s+dur, w)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.EarliestFit(0, 3600, 32)
	}
}

// BenchmarkPlace list-schedules 200 random jobs onto an empty profile,
// fused (Place) and as the fit scan followed by Reserve.
func BenchmarkPlace(b *testing.B) {
	type req struct {
		dur int64
		w   int
	}
	r := stats.NewRand(1)
	reqs := make([]req, 200)
	for k := range reqs {
		reqs[k] = req{dur: int64(r.Intn(5000) + 60), w: r.Intn(64) + 1}
	}
	empty := New(430, 0)
	var p Profile
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.CopyFrom(empty)
			for _, q := range reqs {
				p.Place(0, q.dur, q.w)
			}
		}
	})
	b.Run("fit-then-reserve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.CopyFrom(empty)
			for _, q := range reqs {
				s, _ := p.EarliestFit(0, q.dur, q.w)
				p.Reserve(s, s+q.dur, q.w)
			}
		}
	})
}

func BenchmarkReserveRelease(b *testing.B) {
	p := New(430, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reserve(100, 200, 10)
		p.Release(100, 200, 10)
	}
}

func TestMinFree(t *testing.T) {
	p := New(10, 0)
	mustReserve(t, p, 10, 20, 4) // free 6 on [10,20)
	mustReserve(t, p, 15, 30, 3) // free 3 on [15,20), 7 on [20,30)
	cases := []struct {
		from, to int64
		want     int
	}{
		{0, 10, 10},
		{0, 11, 6},
		{10, 15, 6},
		{10, 20, 3},
		{0, 100, 3},
		{20, 40, 7},
		{30, 40, 10},
		{-5, 5, 10}, // clamped to origin
	}
	for _, c := range cases {
		if got := p.MinFree(c.from, c.to); got != c.want {
			t.Fatalf("MinFree(%d, %d) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

func TestMinFreePanicsOnEmptyWindow(t *testing.T) {
	p := New(4, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("empty window did not panic")
		}
	}()
	p.MinFree(10, 10)
}

// Property: MinFree over [a,b) equals the minimum of FreeAt over every
// second in the window.
func TestMinFreeMatchesPointwise(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		p := New(12, 0)
		for k := 0; k < 6; k++ {
			dur := int64(r.Intn(50) + 1)
			w := r.Intn(12) + 1
			s, _ := p.EarliestFit(int64(r.Intn(100)), dur, w)
			p.Reserve(s, s+dur, w)
		}
		from := int64(r.Intn(150))
		to := from + int64(r.Intn(60)+1)
		want := 12
		for tt := from; tt < to; tt++ {
			if f := p.FreeAt(tt); f < want {
				want = f
			}
		}
		return p.MinFree(from, to) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}
