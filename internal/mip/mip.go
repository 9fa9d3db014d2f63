// Package mip is a branch-and-bound solver for mixed integer linear
// programs on top of the package lp simplex engine. Together they stand in
// for the ILOG CPLEX library the paper uses: LP relaxations are solved
// with warm-started dual simplex along dives, nodes are selected
// best-bound-first with depth plunging, branching picks the most
// fractional integer column, and a caller-supplied rounding heuristic can
// turn relaxation solutions into incumbents (the time-indexed scheduling
// formulation uses list scheduling in fractional-start order).
package mip

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/solvererr"
)

// ErrCanceled is the sentinel matched (via errors.Is) by every
// *CanceledError a context-aware solve returns.
var ErrCanceled = errors.New("mip: solve canceled")

// CanceledError reports that a solve was aborted because the caller's
// context was done. It is a hard abort: partial results (incumbents,
// bounds) are discarded, unlike Options.TimeLimit which is a soft budget
// that returns the best incumbent with Result.DeadlineHit set. Cause
// (promoted from the shared implementation) is context.Cause of the
// context at abort time; errors.Is(err, ErrCanceled) matches every
// instance.
type CanceledError struct{ solvererr.Canceled }

// NewCanceledError wraps cause in the package's typed cancellation error.
// It exists for middleware that mimics a canceled solve without running
// one (the fault-injection hooks); the solver builds its own instances.
func NewCanceledError(cause error) *CanceledError {
	return &CanceledError{solvererr.Canceled{Op: "mip", Sentinel: ErrCanceled, Cause: cause}}
}

// Status is the outcome of a MIP solve.
type Status int

const (
	// Optimal: the incumbent is proven optimal.
	Optimal Status = iota
	// Feasible: limits were hit; the incumbent is feasible but not proven
	// optimal (Result.BestBound gives the proof gap).
	Feasible
	// Infeasible: no integer solution exists.
	Infeasible
	// NoSolution: limits were hit before any incumbent was found.
	NoSolution
	// Unbounded: the relaxation is unbounded.
	Unbounded
)

var statusNames = []string{"optimal", "feasible", "infeasible", "no-solution", "unbounded"}

func (s Status) String() string { return solvererr.StatusName(int(s), statusNames) }

// Heuristic turns an LP-relaxation solution into a feasible integer
// solution. It returns ok=false if it cannot. The solver verifies the
// candidate against the problem before accepting it and copies what it
// keeps. The relaxation slice is valid only during the call.
type Heuristic func(relaxation []float64) (solution []float64, ok bool)

// Bound is one bound tightening applied on a branch.
type Bound struct {
	Col    int
	Lo, Hi float64
}

// Brancher splits a node with the given fractional LP solution into child
// change-sets (each child is the conjunction of its Bounds). Returning nil
// falls back to most-fractional variable branching. Every child must
// genuinely tighten the problem, and the union of children must cover all
// integer solutions of the node, or the solver loses correctness.
// Structured problems use this for far stronger divisions than single
// 0/1 fixings — the time-indexed scheduling model splits a job's start
// range in half (SOS branching). The relaxation slice is valid only during
// the call; the returned change-sets become the children's bounds and
// must not be modified afterwards.
type Brancher func(relaxation []float64) [][]Bound

// Options control the search.
type Options struct {
	// MaxNodes bounds the number of branch-and-bound nodes (0 = 1<<30).
	// With Workers > 1 the limit is approximate: nodes already in flight
	// when it trips still finish, so the count can overshoot by up to
	// Workers-1.
	MaxNodes int
	// Workers is the number of concurrent branch-and-bound workers pulling
	// nodes off the shared best-bound queue (0 defaults to 1, so parallel
	// search is opt-in). Workers=1 runs the serial solver, which is
	// deterministic and reproduces the historical node order exactly
	// whatever GOMAXPROCS is. With more workers the
	// exploration order (and therefore node counts and which of several
	// equally-good incumbents wins) may vary run to run, but the returned
	// objective and best-bound proof remain valid. When Workers > 1 the
	// Heuristic and Brancher callbacks may be invoked concurrently from
	// multiple goroutines and must be safe for that; Progress and
	// OnIncumbent are serialized but may run on worker goroutines.
	Workers int
	// TimeLimit bounds wall-clock time (0 = none).
	TimeLimit time.Duration
	// RelativeGap terminates when (incumbent-bound)/max(1,|incumbent|)
	// drops below it (0 = prove optimality).
	RelativeGap float64
	// IntegralObjective asserts every feasible integer solution has an
	// integral objective value, enabling ceil() bound strengthening (true
	// for the paper's ARTwW objective with integer times and widths).
	IntegralObjective bool
	// Heuristic, if non-nil, runs at every node on the LP solution.
	Heuristic Heuristic
	// Brancher, if non-nil, overrides most-fractional variable branching.
	Brancher Brancher
	// RootCutRounds enables cover-cut separation at the root node
	// (cut-and-branch): up to this many rounds of violated minimal cover
	// inequalities are appended before branching. 0 disables cuts.
	RootCutRounds int
	// Incumbent, if non-nil, is a known feasible solution to start from.
	Incumbent []float64
	// OnIncumbent, if non-nil, is invoked whenever a better feasible
	// solution is accepted (including the initial one), with its
	// objective and a copy of the solution. This enables the anytime use
	// the paper sketches: run the policy schedule immediately and let the
	// optimizer stream in improvements while it is active.
	OnIncumbent func(objective float64, x []float64)
	// LP are the options for the relaxation solves.
	LP lp.Options
	// IntTol is the integrality tolerance (default 1e-6).
	IntTol float64
	// Trace, if non-nil, receives structured solve events: a "mip.solve"
	// span wrapping the search, "mip.incumbent" on every accepted
	// incumbent, "mip.bound" on best-bound improvements and "mip.cuts"
	// after root separation. A nil tracer costs one pointer comparison.
	Trace *obs.Tracer
	// Metrics, if non-nil, accumulates solver counters (mip.nodes,
	// mip.pruned, mip.lp_solves, mip.lp_iters, mip.incumbents,
	// mip.heuristic_hits, mip.deadline_hits, mip.cuts,
	// mip.refactorizations, mip.degenerate_pivots, plus the LP basis
	// family lp.warmstart.hits, lp.eta.updates, lp.lu.ft.updates,
	// lp.lu.fill and lp.lu.refactor.trigger).
	Metrics *obs.Registry
	// Progress, if non-nil, is called with a search snapshot every
	// ProgressEvery explored nodes and after every accepted incumbent.
	Progress func(Progress)
	// ProgressEvery is the node interval between Progress calls
	// (default 500).
	ProgressEvery int
	// Stop, if non-nil, is polled at the same counter-gated cadence as
	// the TimeLimit check. Returning true requests a cooperative soft
	// stop: the search keeps its incumbent (Result.Stopped is set, and
	// the status is Feasible/NoSolution exactly as for a soft deadline)
	// instead of discarding it the way a hard context cancel does. The
	// anytime serving core uses this to preempt a running solve the
	// moment the queue it was solved against changes.
	Stop func() bool
}

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 1 << 30
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.IntTol == 0 {
		o.IntTol = 1e-6
	}
	if o.ProgressEvery == 0 {
		o.ProgressEvery = 500
	}
	return o
}

// Progress is a snapshot of the branch-and-bound search handed to the
// Options.Progress callback.
type Progress struct {
	// Nodes is the number of nodes explored (LP relaxations solved in the
	// tree) so far; Open is the current open-node queue length.
	Nodes, Open int
	// LPIters is the cumulative simplex iteration count.
	LPIters int
	// BestBound is the strengthened global lower bound.
	BestBound float64
	// Incumbent is the best feasible objective found (valid only when
	// HasIncumbent).
	Incumbent    float64
	HasIncumbent bool
	// Elapsed is the wall-clock time since the solve started.
	Elapsed time.Duration
}

// IncumbentRecord logs one accepted incumbent of a solve.
type IncumbentRecord struct {
	// At is the wall-clock offset from the solve start.
	At time.Duration
	// Objective is the incumbent's objective value.
	Objective float64
	// Node is the explored-node count at acceptance time.
	Node int
	// Source is "initial" (Options.Incumbent), "lp" (integral relaxation)
	// or "heuristic".
	Source string
}

// BoundRecord logs one improvement of the global best bound.
type BoundRecord struct {
	At    time.Duration
	Bound float64
	Node  int
}

// Result is the outcome of a solve.
type Result struct {
	Status    Status
	Objective float64   // incumbent objective (valid unless NoSolution/Infeasible)
	X         []float64 // incumbent solution
	BestBound float64   // proven lower bound on the optimum
	Nodes     int
	LPIters   int
	Elapsed   time.Duration
	// HeuristicHits counts incumbents contributed by the heuristic.
	HeuristicHits int
	// Cuts counts the cover cuts added at the root.
	Cuts int
	// Pruned counts nodes discarded by bound without solving their LP.
	Pruned int
	// LPSolves counts LP relaxations solved (tree nodes plus root
	// re-solves during cut separation).
	LPSolves int
	// Refactorizations and DegeneratePivots aggregate the simplex
	// telemetry over all relaxation solves.
	Refactorizations int
	DegeneratePivots int
	// WarmStartHits counts relaxation solves served from a warm-started
	// basis (dual simplex or primal repair) instead of a cold restart.
	WarmStartHits int
	// EtaUpdates aggregates the product-form basis updates performed by
	// the relaxation solves between refactorizations (dense basis mode).
	EtaUpdates int
	// FTUpdates aggregates the Forrest–Tomlin basis updates applied by
	// the sparse LU relaxation solves.
	FTUpdates int
	// LUFill aggregates the factor fill-in (entries created beyond the
	// basis nonzeros) across all sparse factorizations and updates.
	LUFill int
	// RefactorTriggers counts refactorizations forced by an adaptive
	// trigger (fill growth, update rejection, drift) rather than the
	// fixed pivot-count schedule.
	RefactorTriggers int
	// DeadlineHit reports that the solve stopped on its TimeLimit.
	DeadlineHit bool
	// Stopped reports that the solve was preempted by Options.Stop
	// (cooperative soft stop; the incumbent is kept).
	Stopped bool
	// Incumbents is the incumbent timeline (objective improvements with
	// timestamps), oldest first.
	Incumbents []IncumbentRecord
	// Bounds is the best-bound trajectory, oldest first.
	Bounds []BoundRecord
}

// Gap returns the relative optimality gap of the result.
func (r *Result) Gap() float64 {
	if r.Status == Optimal {
		return 0
	}
	return (r.Objective - r.BestBound) / math.Max(1, math.Abs(r.Objective))
}

type node struct {
	bound float64 // parent LP objective (lower bound for the subtree)
	depth int
	seq   int
	// parent is the node this one branched from (nil at the root) and
	// changes are that branch's bound changes alone. The node's bounds are
	// its ancestors' changes applied root first, then its own. Neither
	// field changes once the node is queued, so parallel workers share the
	// chains.
	parent  *node
	changes []Bound
	// basis is the parent's optimal basis for the warm start; it is
	// dropped once the node is solved, so the ancestors a chain keeps
	// alive do not keep their bases too.
	basis *lp.Basis

	// Branching bookkeeping for pseudocost learning: the column and
	// direction this node's last bound change came from, and the
	// fractional distance the change moved it.
	branchCol  int
	branchUp   bool
	branchFrac float64
}

type nodeQueue []*node

func (q nodeQueue) Len() int { return len(q) }
func (q nodeQueue) Less(i, j int) bool {
	if q[i].bound != q[j].bound {
		return q[i].bound < q[j].bound
	}
	if q[i].depth != q[j].depth {
		return q[i].depth > q[j].depth // plunge: deeper first on ties
	}
	return q[i].seq < q[j].seq
}
func (q nodeQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x any)   { *q = append(*q, x.(*node)) }
func (q *nodeQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

type solver struct {
	p       *lp.Problem
	integer []int
	opt     Options

	incumbent    []float64
	incumbentObj float64
	haveInc      bool

	// Pseudocosts: average objective degradation per unit of fractional
	// distance, learned per column and direction from solved children.
	// The table is lock-striped so parallel workers update it without a
	// global bottleneck; the serial path uses the same table (same values,
	// same branching decisions as the historical map implementation).
	pc *pcTable

	nodes    int
	lpIters  int
	lpSolves int
	heurHit  int
	cuts     int
	pruned   int
	refacts  int
	degen    int
	warmHits int
	etaUp    int
	ftUp     int
	luFill   int
	refTrig  int
	start    time.Time

	// ctx is the caller's context (hard abort); lpCtx additionally
	// carries the TimeLimit as a deadline so relaxation solves stop
	// mid-pivot instead of overshooting the budget on expensive nodes.
	ctx   context.Context
	lpCtx context.Context

	// Observability state.
	trace       *obs.Tracer
	incLog      []IncumbentRecord
	boundLog    []BoundRecord
	lastBound   float64
	sinceCheck  int
	deadlineHit bool
	stopped     bool
	queue       *nodeQueue

	// Cached registry counters (nil when Options.Metrics is nil; all
	// Counter methods are nil-safe).
	cNodes, cPruned, cLPSolves, cLPIters *obs.Counter
	cIncumbents, cHeurHits, cDeadline    *obs.Counter
	cCuts, cRefacts, cDegen              *obs.Counter
	cWorkers, cWarmHits, cEtaUp          *obs.Counter
	cFTUp, cLuFill, cLuTrig              *obs.Counter
}

// pcStripes is the stripe count of the pseudocost table; a power of two
// so the stripe pick is a mask.
const pcStripes = 16

// pcTable holds the pseudocost statistics behind per-stripe locks so the
// parallel branch-and-bound workers can record and score branching
// history concurrently. Columns map to stripes by low bits; within a
// stripe the maps are the same up/down sum-and-count pairs the serial
// solver always kept.
type pcTable struct {
	stripes [pcStripes]pcStripe
}

// pcStripe's maps are created by the first record: a search that
// branches only through a Brancher never fills them.
type pcStripe struct {
	mu         sync.Mutex
	up, down   map[int]float64
	upN, downN map[int]int
}

func (t *pcTable) stripe(col int) *pcStripe { return &t.stripes[col&(pcStripes-1)] }

// record adds one observed per-unit objective gain for a branch direction.
func (t *pcTable) record(col int, up bool, perUnit float64) {
	st := t.stripe(col)
	st.mu.Lock()
	if st.up == nil {
		st.up, st.down = map[int]float64{}, map[int]float64{}
		st.upN, st.downN = map[int]int{}, map[int]int{}
	}
	if up {
		st.up[col] += perUnit
		st.upN[col]++
	} else {
		st.down[col] += perUnit
		st.downN[col]++
	}
	st.mu.Unlock()
}

// score returns the product pseudocost score of branching on col at
// fraction f, and whether both directions have history.
func (t *pcTable) score(col int, f float64) (float64, bool) {
	st := t.stripe(col)
	st.mu.Lock()
	defer st.mu.Unlock()
	nUp, nDown := st.upN[col], st.downN[col]
	if nUp == 0 || nDown == 0 {
		return 0, false
	}
	up := st.up[col] / float64(nUp) * (1 - f)
	down := st.down[col] / float64(nDown) * f
	// Standard product score with a small floor.
	return math.Max(up, 1e-6) * math.Max(down, 1e-6), true
}

// timeCheckEvery gates the wall-clock deadline test: time.Since is a
// syscall-ish hot-path cost, so it only runs every this many main-loop
// iterations.
const timeCheckEvery = 64

// recordPseudocost updates the branching statistics after a child LP.
func (s *solver) recordPseudocost(nd *node, childObj float64) {
	if nd.branchCol < 0 || nd.branchFrac <= 1e-9 {
		return
	}
	gain := childObj - nd.bound
	if gain < 0 {
		gain = 0
	}
	s.pc.record(nd.branchCol, nd.branchUp, gain/nd.branchFrac)
}

// pickBranchColumn selects the branching column: pseudocost scoring when
// both directions of a column have history, most-fractional otherwise.
func (s *solver) pickBranchColumn(x []float64) int {
	bestPC, bestPCScore := -1, 0.0
	bestFrac, bestFracDist := -1, s.opt.IntTol
	for _, c := range s.integer {
		f := x[c] - math.Floor(x[c])
		dist := math.Min(f, 1-f)
		if dist <= s.opt.IntTol {
			continue
		}
		if score, ok := s.pc.score(c, f); ok {
			if score > bestPCScore {
				bestPCScore, bestPC = score, c
			}
		}
		if dist > bestFracDist {
			bestFracDist, bestFrac = dist, c
		}
	}
	if bestPC >= 0 {
		return bestPC
	}
	return bestFrac
}

// Solve minimizes the problem with the given columns restricted to
// integral values.
func Solve(p *lp.Problem, integer []int, opt Options) (*Result, error) {
	return SolveCtx(context.Background(), p, integer, opt)
}

// SolveCtx is Solve with cooperative cancellation. The context is polled
// at the counter-gated node checkpoint and inside every LP relaxation, so
// a cancellation aborts mid-branch-and-bound within a few pivots. A done
// context returns a *CanceledError and discards partial results; use
// Options.TimeLimit for a soft budget that keeps the incumbent. The
// problem's bounds are restored before returning, so an aborted solve
// leaves no partial state.
func SolveCtx(ctx context.Context, p *lp.Problem, integer []int, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	for _, c := range integer {
		if c < 0 || c >= p.NumVariables() {
			return nil, fmt.Errorf("mip: integer column %d out of range", c)
		}
	}
	s := &solver{p: p, integer: integer, opt: opt, start: time.Now(),
		pc: &pcTable{}}
	s.ctx, s.lpCtx = ctx, ctx
	if opt.TimeLimit > 0 {
		// Soft deadline for the LP relaxations: an expensive node used to
		// overshoot a short TimeLimit by seconds because the wall clock was
		// only consulted every timeCheckEvery node pops. The deadline
		// context stops the simplex mid-pivot; the node loop converts that
		// into the ordinary deadline-hit path, keeping the incumbent.
		lpCtx, cancel := context.WithDeadline(ctx, s.start.Add(opt.TimeLimit))
		defer cancel()
		s.lpCtx = lpCtx
	}
	s.incumbentObj = math.Inf(1)
	s.lastBound = math.Inf(-1)
	s.trace = opt.Trace
	if reg := opt.Metrics; reg != nil {
		s.cNodes = reg.Counter("mip.nodes")
		s.cPruned = reg.Counter("mip.pruned")
		s.cLPSolves = reg.Counter("mip.lp_solves")
		s.cLPIters = reg.Counter("mip.lp_iters")
		s.cIncumbents = reg.Counter("mip.incumbents")
		s.cHeurHits = reg.Counter("mip.heuristic_hits")
		s.cDeadline = reg.Counter("mip.deadline_hits")
		s.cCuts = reg.Counter("mip.cuts")
		s.cRefacts = reg.Counter("mip.refactorizations")
		s.cDegen = reg.Counter("mip.degenerate_pivots")
		s.cWorkers = reg.Counter("mip.workers.active")
		s.cWarmHits = reg.Counter("lp.warmstart.hits")
		s.cEtaUp = reg.Counter("lp.eta.updates")
		s.cFTUp = reg.Counter("lp.lu.ft.updates")
		s.cLuFill = reg.Counter("lp.lu.fill")
		s.cLuTrig = reg.Counter("lp.lu.refactor.trigger")
	}
	spanFields := []obs.Field{
		obs.Int("cols", int64(p.NumVariables())),
		obs.Int("rows", int64(p.NumConstraints())),
		obs.Int("ints", int64(len(integer))),
	}
	// A request trace ID on ctx (the serving path) joins this solve to
	// that request's end-to-end trace.
	if tid := obs.TraceIDFrom(ctx); tid != "" {
		spanFields = append(spanFields, obs.Str("trace", tid))
	}
	span := s.trace.StartSpan("mip.solve", spanFields...)
	statuses := opt.Metrics.CounterVec("mip.solve.status", "status")
	if opt.Incumbent != nil {
		if err := s.tryIncumbent(opt.Incumbent, nil, "initial"); err != nil {
			span.End(obs.Str("status", "error"))
			statuses.With("error").Inc()
			return nil, fmt.Errorf("mip: bad initial incumbent: %v", err)
		}
	}
	var res *Result
	var err error
	if opt.Workers > 1 {
		res, err = s.runParallel()
	} else {
		res, err = s.run()
	}
	if err != nil {
		span.End(obs.Str("status", "error"))
		statuses.With("error").Inc()
		return nil, err
	}
	span.End(obs.Str("status", res.Status.String()),
		obs.Int("nodes", int64(res.Nodes)),
		obs.Int("lp_iters", int64(res.LPIters)),
		obs.Float("objective", res.Objective),
		obs.Float("best_bound", res.BestBound))
	statuses.With(res.Status.String()).Inc()
	return res, nil
}

// evaluate checks candidate feasibility and returns its objective. act is
// the caller's row-activity buffer (see checkRows).
func (s *solver) evaluate(x, act []float64) (float64, error) {
	n := s.p.NumVariables()
	if len(x) != n {
		return 0, fmt.Errorf("dimension %d, want %d", len(x), n)
	}
	const eps = 1e-6
	for j := 0; j < n; j++ {
		lo, hi := s.p.Bounds(j)
		if x[j] < lo-eps || x[j] > hi+eps {
			return 0, fmt.Errorf("column %d value %g outside [%g,%g]", j, x[j], lo, hi)
		}
	}
	for _, j := range s.integer {
		if math.Abs(x[j]-math.Round(x[j])) > s.opt.IntTol {
			return 0, fmt.Errorf("column %d value %g not integral", j, x[j])
		}
	}
	if err := checkRows(s.p, x, eps, act); err != nil {
		return 0, err
	}
	return s.objective(x), nil
}

func (s *solver) objective(x []float64) float64 {
	var obj float64
	for j := range x {
		obj += s.p.Cost(j) * x[j]
	}
	return obj
}

// improves reports whether the heuristic candidate x is feasible and
// better than the incumbent objective inc, and returns its objective. It
// prices x before it checks it, because most candidates do not improve.
func (s *solver) improves(x []float64, inc float64, act []float64) (float64, bool) {
	if len(x) != s.p.NumVariables() || !(s.objective(x) < inc-1e-9) {
		return 0, false
	}
	obj, err := s.evaluate(x, act)
	return obj, err == nil
}

func (s *solver) tryIncumbent(x, act []float64, source string) error {
	obj, err := s.evaluate(x, act)
	if err != nil {
		return err
	}
	if obj < s.incumbentObj-1e-9 {
		s.acceptIncumbent(x, obj, source)
	}
	return nil
}

// acceptIncumbent installs a verified improving solution and reports it
// to every observer (incumbent log, trace, counters, callbacks).
func (s *solver) acceptIncumbent(x []float64, obj float64, source string) {
	s.incumbent = append([]float64(nil), x...)
	s.incumbentObj = obj
	s.haveInc = true
	at := time.Since(s.start)
	s.incLog = append(s.incLog, IncumbentRecord{At: at, Objective: obj, Node: s.nodes, Source: source})
	s.cIncumbents.Inc()
	s.trace.Emit("mip.incumbent",
		obs.Float("objective", obj),
		obs.Int("node", int64(s.nodes)),
		obs.Str("source", source),
		obs.Float("elapsed_ms", float64(at)/float64(time.Millisecond)))
	if s.opt.OnIncumbent != nil {
		s.opt.OnIncumbent(obj, append([]float64(nil), x...))
	}
	s.progress()
}

// progress invokes the user progress callback with a search snapshot.
func (s *solver) progress() {
	if s.opt.Progress == nil {
		return
	}
	open := 0
	if s.queue != nil {
		open = s.queue.Len()
	}
	s.opt.Progress(Progress{
		Nodes: s.nodes, Open: open, LPIters: s.lpIters,
		BestBound: s.lastBound, Incumbent: s.incumbentObj, HasIncumbent: s.haveInc,
		Elapsed: time.Since(s.start),
	})
}

// observeBound records a global best-bound improvement. At a pop of the
// best-bound-first queue the popped node's bound is the global minimum
// over all open nodes, so the trajectory is monotone.
func (s *solver) observeBound(bound float64) {
	if !(bound > s.lastBound) || math.IsInf(bound, -1) {
		return
	}
	s.lastBound = bound
	s.boundLog = append(s.boundLog, BoundRecord{At: time.Since(s.start), Bound: bound, Node: s.nodes})
	s.trace.Emit("mip.bound",
		obs.Float("bound", bound),
		obs.Int("node", int64(s.nodes)))
}

// fractional returns the most fractional integer column of x, or -1 if x
// is integral on all integer columns.
func (s *solver) fractional(x []float64) int {
	best, bestDist := -1, s.opt.IntTol
	for _, c := range s.integer {
		f := x[c] - math.Floor(x[c])
		dist := math.Min(f, 1-f)
		if dist > bestDist {
			bestDist, best = dist, c
		}
	}
	return best
}

// strengthen applies ceil-rounding to a lower bound when the objective is
// known integral.
func (s *solver) strengthen(bound float64) float64 {
	if s.opt.IntegralObjective {
		return math.Ceil(bound - 1e-6)
	}
	return bound
}

// gapReached reports whether the incumbent is within the requested gap of
// the bound.
func (s *solver) gapReached(bound float64) bool {
	if !s.haveInc {
		return false
	}
	if s.incumbentObj-bound <= 1e-9 {
		return true
	}
	if s.opt.RelativeGap > 0 {
		return (s.incumbentObj-bound)/math.Max(1, math.Abs(s.incumbentObj)) <= s.opt.RelativeGap
	}
	return false
}

func (s *solver) timeUp() bool {
	return s.opt.TimeLimit > 0 && time.Since(s.start) > s.opt.TimeLimit
}

// stopRequested polls the cooperative preemption hook.
func (s *solver) stopRequested() bool {
	return s.opt.Stop != nil && s.opt.Stop()
}

// nodeSolver solves node relaxations on one problem in reused buffers:
// the LP workspace, the root-to-leaf path, the bounds the path overwrote
// and the row activities of candidate checks. The serial search owns one;
// each parallel worker owns one on its private problem clone.
type nodeSolver struct {
	p    *lp.Problem
	ws   lp.Workspace
	path []*node
	undo []Bound
	act  []float64
}

// nodeSolvers keeps node solvers, and the buffers they have grown,
// from one search to the next.
var nodeSolvers = sync.Pool{New: func() any { return new(nodeSolver) }}

// getNodeSolver returns a pooled node solver for p; putNodeSolver hands
// it back when the search is done with it.
func getNodeSolver(p *lp.Problem) *nodeSolver {
	ns := nodeSolvers.Get().(*nodeSolver)
	ns.p = p
	if m := p.NumConstraints(); len(ns.act) < m {
		ns.act = make([]float64, m)
	}
	return ns
}

func putNodeSolver(ns *nodeSolver) {
	ns.p = nil
	nodeSolvers.Put(ns)
}

// solve applies nd's bounds (ancestors' changes root first, then its
// own), solves the relaxation warm from nd's parent basis and restores
// the bounds. The Result and its X belong to ns.ws until the next solve;
// ns.childBasis exports the basis for children.
func (ns *nodeSolver) solve(ctx context.Context, nd *node, opt lp.Options) (*lp.Result, error) {
	ns.path = ns.path[:0]
	for a := nd; a != nil; a = a.parent {
		ns.path = append(ns.path, a)
	}
	ns.undo = ns.undo[:0]
	for i := len(ns.path) - 1; i >= 0; i-- {
		for _, ch := range ns.path[i].changes {
			lo, hi := ns.p.Bounds(ch.Col)
			ns.undo = append(ns.undo, Bound{Col: ch.Col, Lo: lo, Hi: hi})
			ns.p.SetBounds(ch.Col, ch.Lo, ch.Hi)
		}
	}
	clear(ns.path) // do not pin solved nodes
	res, err := ns.ws.SolveFrom(ctx, ns.p, nd.basis, opt)
	for i := len(ns.undo) - 1; i >= 0; i-- {
		u := ns.undo[i]
		ns.p.SetBounds(u.Col, u.Lo, u.Hi)
	}
	if err == nil {
		nd.basis = nil
	}
	return res, err
}

// childBasis is the warm start for the children of a node whose
// relaxation solved to res: a root cut re-solve owns its Basis, a node
// solve leaves it in the workspace.
func (ns *nodeSolver) childBasis(res *lp.Result) *lp.Basis {
	if res.Basis != nil {
		return res.Basis
	}
	return ns.ws.Basis()
}

func (s *solver) run() (*Result, error) {
	queue := &nodeQueue{}
	s.queue = queue
	heap.Push(queue, &node{bound: math.Inf(-1), branchCol: -1})
	seq := 1
	limited := false
	ns := getNodeSolver(s.p)
	defer putNodeSolver(ns)
	s.sinceCheck = timeCheckEvery // check the deadline on the first iteration

	for queue.Len() > 0 {
		if s.nodes >= s.opt.MaxNodes {
			limited = true
			break
		}
		// Deadline test, counter-gated: time.Since at every node dominates
		// small-LP solves, so it only fires every timeCheckEvery pops.
		if s.sinceCheck++; s.sinceCheck >= timeCheckEvery {
			s.sinceCheck = 0
			if s.ctx.Err() != nil {
				return nil, NewCanceledError(context.Cause(s.ctx))
			}
			if s.timeUp() {
				s.deadlineHit = true
				s.cDeadline.Inc()
				s.trace.Emit("mip.deadline", obs.Int("node", int64(s.nodes)))
				limited = true
				break
			}
			if s.stopRequested() {
				s.stopped = true
				s.trace.Emit("mip.stopped", obs.Int("node", int64(s.nodes)))
				limited = true
				break
			}
		}
		nd := heap.Pop(queue).(*node)
		s.observeBound(s.strengthen(nd.bound))
		// Bound-based pruning against the current incumbent.
		if s.haveInc && s.strengthen(nd.bound) >= s.incumbentObj-1e-9 {
			s.pruned++
			s.cPruned.Inc()
			continue
		}
		res, err := ns.solve(s.lpCtx, nd, s.opt.LP)
		if err != nil {
			if errors.Is(err, lp.ErrCanceled) {
				if s.ctx.Err() != nil {
					// The caller's context aborted the relaxation: hard stop.
					return nil, NewCanceledError(context.Cause(s.ctx))
				}
				// Our own TimeLimit deadline interrupted the LP: behave like
				// the node-loop deadline check. Re-queue the node so the
				// best-bound proof over the open nodes stays valid.
				heap.Push(queue, nd)
				s.deadlineHit = true
				s.cDeadline.Inc()
				s.trace.Emit("mip.deadline", obs.Int("node", int64(s.nodes)))
				limited = true
				break
			}
			return nil, err
		}
		s.nodes++
		s.countLP(res)
		if s.nodes%s.opt.ProgressEvery == 0 {
			s.progress()
		}
		switch res.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			if nd.depth == 0 {
				return s.result(Unbounded), nil
			}
			continue // cannot happen below the root with finite branching bounds
		case lp.IterationLimit:
			// Treat as unexplorable but keep correctness: without a valid
			// bound we must not prune, so re-solving cold already happened
			// inside SolveFrom; give up on proving this subtree.
			limited = true
			continue
		}
		s.recordPseudocost(nd, res.Objective)
		bound := s.strengthen(res.Objective)
		if s.haveInc && bound >= s.incumbentObj-1e-9 {
			continue
		}
		branchCol := s.fractional(res.X)
		if branchCol < 0 {
			// Integral LP solution: new incumbent.
			if err := s.tryIncumbent(res.X, ns.act, "lp"); err != nil {
				return nil, fmt.Errorf("mip: integral LP solution rejected: %v", err)
			}
			continue
		}
		if nd.depth == 0 && s.opt.RootCutRounds > 0 {
			// Cut-and-branch: tighten the root relaxation with cover cuts.
			tightened, nCuts, err := s.addRootCuts(res, s.opt.RootCutRounds)
			if err != nil {
				return nil, err
			}
			s.cuts = nCuts
			s.cCuts.Add(int64(nCuts))
			if nCuts > 0 {
				s.trace.Emit("mip.cuts", obs.Int("count", int64(nCuts)),
					obs.Float("bound", s.strengthen(tightened.Objective)))
				res = tightened
				bound = s.strengthen(res.Objective)
				if s.haveInc && bound >= s.incumbentObj-1e-9 {
					continue
				}
				branchCol = s.fractional(res.X)
				if branchCol < 0 {
					if err := s.tryIncumbent(res.X, ns.act, "lp"); err != nil {
						return nil, fmt.Errorf("mip: integral cut solution rejected: %v", err)
					}
					continue
				}
			}
		}
		if s.opt.Heuristic != nil {
			if cand, ok := s.opt.Heuristic(res.X); ok {
				if obj, ok := s.improves(cand, s.incumbentObj, ns.act); ok {
					s.heurHit++
					s.cHeurHits.Inc()
					s.acceptIncumbent(cand, obj, "heuristic")
				}
			}
		}
		if s.gapReached(bound) {
			continue
		}
		s.branch(queue, &seq, nd, res, ns.childBasis(res), branchCol)
	}

	switch {
	case s.haveInc && !limited && queue.Len() == 0:
		return s.result(Optimal), nil
	case s.haveInc && s.opt.RelativeGap > 0 && !limited:
		// Queue drained under a gap limit: incumbent is within the gap.
		return s.result(Optimal), nil
	case s.haveInc:
		r := s.result(Feasible)
		// Best bound = min over remaining open nodes (or incumbent).
		bb := s.incumbentObj
		for _, nd := range *queue {
			if b := s.strengthen(nd.bound); b < bb {
				bb = b
			}
		}
		r.BestBound = bb
		return r, nil
	case limited:
		return s.result(NoSolution), nil
	default:
		return s.result(Infeasible), nil
	}
}

// branch queues the children of nd, whose relaxation res is fractional
// in branchCol (the most fractional column); basis warm-starts them. A
// custom Brancher may divide the node; otherwise it branches on one
// column, chosen by pseudocost once both directions have history. The
// serial loop calls it with its own queue and sequence counter, the
// parallel workers with the shared ones under the pool lock.
func (s *solver) branch(q *nodeQueue, seq *int, nd *node, res *lp.Result, basis *lp.Basis, branchCol int) {
	var children [][]Bound
	if s.opt.Brancher != nil {
		children = s.opt.Brancher(res.X)
	}
	if len(children) == 0 {
		if pc := s.pickBranchColumn(res.X); pc >= 0 {
			branchCol = pc
		}
		v := res.X[branchCol]
		f := v - math.Floor(v)
		lo, hi := boundsAfter(s.p, nd, branchCol)
		down := &node{
			bound: res.Objective, depth: nd.depth + 1, seq: *seq, parent: nd,
			changes:   []Bound{{Col: branchCol, Lo: lo, Hi: math.Floor(v)}},
			basis:     basis,
			branchCol: branchCol, branchUp: false, branchFrac: f,
		}
		*seq++
		up := &node{
			bound: res.Objective, depth: nd.depth + 1, seq: *seq, parent: nd,
			changes:   []Bound{{Col: branchCol, Lo: math.Ceil(v), Hi: hi}},
			basis:     basis,
			branchCol: branchCol, branchUp: true, branchFrac: 1 - f,
		}
		*seq++
		// Plunge toward the nearer side first (smaller seq wins ties).
		if f > 0.5 {
			down.seq, up.seq = up.seq, down.seq
		}
		heap.Push(q, down)
		heap.Push(q, up)
		return
	}
	for _, ch := range children {
		heap.Push(q, &node{
			bound: res.Objective, depth: nd.depth + 1, seq: *seq, parent: nd,
			changes:   ch,
			basis:     basis,
			branchCol: -1,
		})
		*seq++
	}
}

// countLP merges one relaxation result into the solver telemetry and the
// registry counters. Parallel workers call it under the pool lock.
func (s *solver) countLP(res *lp.Result) {
	s.lpSolves++
	s.lpIters += res.Iterations
	s.refacts += res.Refactorizations
	s.degen += res.DegeneratePivots
	s.etaUp += res.EtaUpdates
	s.ftUp += res.FTUpdates
	s.luFill += res.LUFill
	s.refTrig += res.RefactorsTriggered
	s.cNodes.Inc()
	s.cLPSolves.Inc()
	s.cLPIters.Add(int64(res.Iterations))
	s.cRefacts.Add(int64(res.Refactorizations))
	s.cDegen.Add(int64(res.DegeneratePivots))
	s.cEtaUp.Add(int64(res.EtaUpdates))
	s.cFTUp.Add(int64(res.FTUpdates))
	s.cLuFill.Add(int64(res.LUFill))
	s.cLuTrig.Add(int64(res.RefactorsTriggered))
	if res.WarmStarted {
		s.warmHits++
		s.cWarmHits.Inc()
	}
}

func (s *solver) result(st Status) *Result {
	r := &Result{
		Status:           st,
		Nodes:            s.nodes,
		LPIters:          s.lpIters,
		LPSolves:         s.lpSolves,
		Elapsed:          time.Since(s.start),
		HeuristicHits:    s.heurHit,
		Cuts:             s.cuts,
		Pruned:           s.pruned,
		Refactorizations: s.refacts,
		DegeneratePivots: s.degen,
		WarmStartHits:    s.warmHits,
		EtaUpdates:       s.etaUp,
		FTUpdates:        s.ftUp,
		LUFill:           s.luFill,
		RefactorTriggers: s.refTrig,
		DeadlineHit:      s.deadlineHit,
		Stopped:          s.stopped,
		Incumbents:       s.incLog,
		Bounds:           s.boundLog,
	}
	if s.haveInc {
		r.Objective = s.incumbentObj
		r.X = append([]float64(nil), s.incumbent...)
		r.BestBound = s.incumbentObj
		if st == Feasible {
			r.BestBound = math.Inf(-1)
		}
	} else {
		r.Objective = math.Inf(1)
		r.BestBound = math.Inf(-1)
	}
	return r
}

// boundsAfter returns the effective bounds of col at node nd: the nearest
// change to col on the chain, or p's bounds when no change touches it. p
// must hold the root bounds.
func boundsAfter(p *lp.Problem, nd *node, col int) (float64, float64) {
	for a := nd; a != nil; a = a.parent {
		for i := len(a.changes) - 1; i >= 0; i-- {
			if ch := a.changes[i]; ch.Col == col {
				return ch.Lo, ch.Hi
			}
		}
	}
	return p.Bounds(col)
}

// checkRows verifies a point against all rows of the problem. It is used
// to validate incumbent candidates. act is a reused row-activity buffer;
// one shorter than the row count is replaced by a new one.
func checkRows(p *lp.Problem, x []float64, eps float64, act []float64) error {
	m := p.NumConstraints()
	if len(act) < m {
		act = make([]float64, m)
	}
	act = act[:m]
	clear(act)
	p.AccumulateRows(x, act)
	for i := 0; i < m; i++ {
		sen, rhs := p.Row(i)
		switch sen {
		case lp.LE:
			if act[i] > rhs+eps {
				return fmt.Errorf("row %d: %g > %g", i, act[i], rhs)
			}
		case lp.GE:
			if act[i] < rhs-eps {
				return fmt.Errorf("row %d: %g < %g", i, act[i], rhs)
			}
		case lp.EQ:
			if math.Abs(act[i]-rhs) > eps {
				return fmt.Errorf("row %d: %g != %g", i, act[i], rhs)
			}
		}
	}
	return nil
}
