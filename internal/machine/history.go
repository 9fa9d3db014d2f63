package machine

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Running describes an already-running job as the scheduler sees it: it
// occupies Width processors until End (computed from the *estimated*
// duration, as the paper prescribes: "the estimated duration of already
// running jobs has to be used for generating the time stamps").
type Running struct {
	JobID int
	Width int
	End   int64 // first second the processors are free again
}

// History is the paper's machine history (Figure 1): a list of tuples
// (time stamp, number of resources free from that time on). The number of
// free resources is monotone non-decreasing because only running jobs are
// considered.
type History []Step

// HistoryFromRunning derives the machine history at time now for a machine
// with total processors and the given running jobs. Jobs whose End is <=
// now are ignored. If more than one job ends at the same time a single
// time stamp is emitted, as in the paper. The input is not modified; when
// it is already ordered by End (as a simulator keeps its running jobs) it
// is not copied either.
func HistoryFromRunning(total int, now int64, running []Running) (History, error) {
	busy, sorted := 0, true
	for i, r := range running {
		if r.Width < 1 {
			return nil, fmt.Errorf("machine: running job %d has width %d", r.JobID, r.Width)
		}
		if i > 0 && r.End < running[i-1].End {
			sorted = false
		}
		if r.End <= now {
			continue
		}
		busy += r.Width
	}
	if busy > total {
		return nil, fmt.Errorf("machine: running jobs occupy %d > %d processors", busy, total)
	}
	if !sorted {
		running = slices.Clone(running)
		slices.SortFunc(running, func(a, b Running) int { return cmp.Compare(a.End, b.End) })
	}
	free := total - busy
	h := make(History, 1, len(running)+1)
	h[0] = Step{Time: now, Free: free}
	for _, r := range running {
		if r.End <= now {
			continue
		}
		free += r.Width
		if last := &h[len(h)-1]; last.Time == r.End {
			last.Free = free
		} else {
			h = append(h, Step{Time: r.End, Free: free})
		}
	}
	return h, nil
}

// Profile converts the history into a capacity profile suitable for
// planning waiting jobs on top of the running ones.
func (h History) Profile(total int) *Profile {
	p := &Profile{total: total, steps: append([]Step(nil), h...)}
	p.normalize()
	return p
}

// Monotone reports whether free resources never decrease over the history,
// which must hold for any history derived from running jobs only.
func (h History) Monotone() bool {
	for i := 1; i < len(h); i++ {
		if h[i].Free < h[i-1].Free {
			return false
		}
	}
	return true
}

// String renders the history as the two-column table of Figure 1.
func (h History) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s  %14s\n", "time [sec.]", "free resources")
	for _, s := range h {
		fmt.Fprintf(&b, "%12d  %14d\n", s.Time, s.Free)
	}
	return b.String()
}
