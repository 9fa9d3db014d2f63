package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/obs"
	"repro/internal/solvererr"
)

// ErrCanceled is the sentinel matched (via errors.Is) by every
// *CanceledError a context-aware solve returns.
var ErrCanceled = errors.New("lp: solve canceled")

// CanceledError reports that a solve was aborted because its context was
// done. Cause (promoted from the shared implementation) is context.Cause
// of the context at abort time, so callers can distinguish deadlines from
// explicit cancellation with errors.Is; errors.Is(err, ErrCanceled)
// matches every instance.
type CanceledError struct{ solvererr.Canceled }

// newCanceled wraps cause in the package's typed cancellation error.
func newCanceled(cause error) *CanceledError {
	return &CanceledError{solvererr.Canceled{Op: "lp", Sentinel: ErrCanceled, Cause: cause}}
}

// Status is the outcome of a solve.
type Status int

const (
	// Optimal: an optimal basic solution was found.
	Optimal Status = iota
	// Infeasible: the constraints admit no solution.
	Infeasible
	// Unbounded: the objective decreases without bound.
	Unbounded
	// IterationLimit: the iteration budget was exhausted.
	IterationLimit
)

var statusNames = []string{"optimal", "infeasible", "unbounded", "iteration-limit"}

func (s Status) String() string { return solvererr.StatusName(int(s), statusNames) }

// Options control a solve.
type Options struct {
	// MaxIters bounds the total simplex iterations (default 50000).
	MaxIters int
	// Tol is the feasibility/optimality tolerance (default 1e-7).
	Tol float64
	// Trace, if non-nil, wraps the solve in an "lp.solve" span carrying
	// the problem shape, status, iteration count and warm-start flag.
	// Leave nil on per-node solves inside branch and bound: a span pair
	// per LP re-solve would swamp the trace.
	Trace *obs.Tracer
	// DenseBasis selects the legacy dense explicit basis inverse
	// (Gauss-Jordan factorization plus product-form eta updates) instead
	// of the default sparse LU factorization with Forrest–Tomlin
	// updates. It is the escape hatch for differential testing and
	// numerical comparison against the sparse core.
	DenseBasis bool
}

func (o Options) withDefaults() Options {
	if o.MaxIters == 0 {
		o.MaxIters = 50000
	}
	if o.Tol == 0 {
		o.Tol = 1e-7
	}
	return o
}

// Result is the outcome of a solve.
type Result struct {
	Status     Status
	Objective  float64
	X          []float64 // structural variable values (valid for Optimal)
	Duals      []float64 // row dual values y (valid for Optimal)
	Iterations int
	Basis      *Basis // warm-start information (valid for Optimal; nil from Workspace.SolveFrom)
	// Refactorizations counts basis-inverse rebuilds from scratch.
	Refactorizations int
	// DegeneratePivots counts pivots with a (near-)zero step length, the
	// classic stall indicator of the simplex method.
	DegeneratePivots int
	// BoundFlips counts nonbasic bound-to-bound moves (no basis change).
	BoundFlips int
	// EtaUpdates counts product-form basis-inverse updates applied between
	// periodic refactorizations — the per-pivot O(m²) eta path of the
	// dense fallback (Options.DenseBasis). Zero on the sparse path, which
	// counts FTUpdates instead.
	EtaUpdates int
	// FTUpdates counts Forrest–Tomlin basis updates applied by the sparse
	// LU core between refactorizations (the fill-bounded replacement for
	// the O(m²) eta path).
	FTUpdates int
	// LUFill counts factor entries created beyond the basis nonzero
	// pattern: elimination fill-in plus Forrest–Tomlin spike and row-eta
	// entries, summed over the whole solve.
	LUFill int
	// RefactorsTriggered counts refactorizations forced by an adaptive
	// trigger — fill growth or an unstable update diagonal on the sparse
	// path, accumulated numerical drift on the dense path — as opposed to
	// the fixed pivot-count backstop or warm-start rebuilds.
	RefactorsTriggered int
	// WarmStarted reports that the result came from a warm-started path
	// (the supplied basis was reused, either by the dual simplex or by the
	// primal repair), not from the cold all-slack fallback.
	WarmStarted bool
}

// Basis is an opaque warm-start snapshot (column statuses and the basis
// row assignment for structural + slack columns).
type Basis struct {
	stat []colStatus
	rows []int
}

type colStatus int8

const (
	atLower colStatus = iota
	atUpper
	isBasic
	freeNB // nonbasic free variable, held at zero
)

// refactorEvery is the dense fallback's fixed pivot-count backstop; its
// primary trigger is the accumulated-drift check below. The sparse LU
// path refactorizes on fill growth and update stability instead (lu.go).
const refactorEvery = 100

// driftCheckEvery and driftRefactorTol govern the dense path's
// drift-based refactorization: every driftCheckEvery pivots the relative
// residual of B·x_B against the nonbasic-adjusted RHS is measured, and a
// rebuild is forced when the accumulated product-form error exceeds the
// tolerance.
const (
	driftCheckEvery  = 16
	driftRefactorTol = 1e-7
)

// dualBreakdownHook, when non-nil, runs right after the dual simplex's
// entering-column FTRAN and before its numerical-breakdown check. It is
// a test-only injection point: the breakdown branch guards against a
// pivot element that the (refactorized) solve disagrees with, a state
// that cannot be constructed organically because the pricing row and the
// FTRAN use the same factorization arithmetic. The kernel tests also
// use it to check the kept reduced costs at every dual iteration.
var dualBreakdownHook func(s *simplex, w []float64, r int)

// factorCoef is one structural basic coefficient bucketed by covered row
// during factorize().
type factorCoef struct {
	b   int
	val float64
}

// scratch is the reusable allocation set of a simplex. A branch-and-bound
// run performs thousands of short LP solves; without reuse every one of
// them allocates the column-state vectors, the pivot work arrays, the LU
// factors and the solution vectors from scratch. A Workspace owns one
// scratch and hands it to each solve it runs; release() writes back the
// slices a solve grew.
type scratch struct {
	cost, lo, hi, structCost []float64
	stat                     []colStatus
	acols                    [][]nz
	slack                    []nz // one {row, +1} entry per slack column
	art                      []nz // one {row, ±1} entry per artificial, indexed by row
	basis                    []int
	binv, xB                 []float64
	y, w, rho, tmp, wf, d    []float64
	artRow                   []int
	artSign                  []float64
	movable                  []int // see movableCols

	// The dual simplex's pivot row (see pivotRow): alpha holds ρᵀA_j for
	// the columns listed in touched, which seen marks; both are all-zero
	// between iterations. cands holds the ratio test's breakpoints.
	alpha   []float64
	seen    []bool
	touched []int
	cands   []breakpoint

	// factorize() temporaries.
	posOfRow, structPos, rv, rvIdx []int
	fscale, fa, fainv              []float64
	cRows                          [][]factorCoef

	// lu is the sparse basis factorization, lazily created and reused
	// across the solves this scratch serves.
	lu *luFactor

	// res and xd back the Result of the last solve: X is xd[:n] and
	// Duals is xd[n:].
	res Result
	xd  []float64
}

// Workspace holds the buffers of a sequence of LP solves: the simplex
// state, its factorization and the solution vectors. Once the buffers have
// grown to the problem's size a solve on a Workspace allocates nothing,
// which is what a branch-and-bound worker needs: it solves one relaxation
// per node. A Workspace is not safe for concurrent use; give each
// goroutine its own. The zero value is ready to use.
type Workspace struct {
	sc scratch
	s  simplex
}

// workspacePool serves the one-shot solves (Problem.Solve, SolveFrom and
// their Ctx forms), which copy their Result out before returning the
// Workspace.
var workspacePool = sync.Pool{New: func() any { return new(Workspace) }}

// growF returns buf resized to n, reallocating only when the capacity is
// too small. Contents are unspecified; callers overwrite what they read.
func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growI(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func growStat(buf []colStatus, n int) []colStatus {
	if cap(buf) < n {
		return make([]colStatus, n)
	}
	return buf[:n]
}

func growNZ(buf []nz, n int) []nz {
	if cap(buf) < n {
		return make([]nz, n)
	}
	return buf[:n]
}

func growCols(buf [][]nz, n int) [][]nz {
	if cap(buf) < n {
		return make([][]nz, n)
	}
	return buf[:n]
}

func growCRows(buf [][]factorCoef, n int) [][]factorCoef {
	if cap(buf) < n {
		buf = make([][]factorCoef, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = buf[i][:0]
	}
	return buf
}

type simplex struct {
	p    *Problem
	m, n int // rows, structural columns
	opt  Options

	// Per-column state; columns are [structural | slacks | artificials].
	cost, lo, hi []float64
	stat         []colStatus

	artRow  []int
	artSign []float64

	// acols holds the computational columns (structural, then slacks,
	// then artificials) as plain slices so that hot loops iterate
	// directly instead of through closures.
	acols [][]nz

	basis []int     // basis[i] = column basic in row i
	binv  []float64 // m×m row-major inverse of the basis matrix (dense mode)
	lu    *luFactor // sparse LU factors of the basis (default mode)
	dense bool      // Options.DenseBasis: use binv instead of lu
	xB    []float64

	// Pivot-loop work arrays (duals, ftran result, dual row), plus the
	// computeXB temporary; all scratch-backed.
	y, w, rho, tmp []float64
	// wf is the dual simplex's FTRAN of its bound flips, and d the
	// reduced costs it keeps across iterations (see price).
	wf, d []float64

	iters       int
	refacts     int
	degen       int
	flips       int
	etaUp       int // product-form binv updates since solve start (dense)
	ftUp        int // Forrest–Tomlin updates since solve start (sparse)
	luFillCarry int // LU fill carried from an abandoned warm attempt
	refactsTrig int // adaptive-trigger refactorizations (drift/fill/stability)
	broken      bool
	sincefact   int
	stall       int
	bland       bool
	lastObj     float64
	phase1      bool
	structCost  []float64 // original costs, structural+slack (+art zeros)

	// sc is the pooled allocation set backing the slices above; release()
	// returns it (nil after release).
	sc *scratch

	// Cooperative cancellation: ctx is polled every cancelCheckEvery
	// iterations; canceled latches the first observed ctx error.
	ctx      context.Context
	canceled bool
}

// cancelCheckEvery gates the context poll in the pivot loops: ctx.Err()
// takes a lock on derived contexts, so it only runs every this many
// simplex iterations (the same device as the mip node-loop deadline gate).
const cancelCheckEvery = 64

// ctxDone polls the solve context (counter-gated by the callers). The
// first observed cancellation is latched so the pivot loops can unwind
// through their normal Status return path.
func (s *simplex) ctxDone() bool {
	if s.ctx == nil {
		return false
	}
	if s.ctx.Err() != nil {
		s.canceled = true
		return true
	}
	return false
}

// cancelErr builds the typed error for a latched cancellation.
func (s *simplex) cancelErr() error {
	return newCanceled(context.Cause(s.ctx))
}

// start initializes the Workspace's simplex for one solve of p. Every
// field is reset; only the scratch buffers carry over.
func (ws *Workspace) start(p *Problem, opt Options) *simplex {
	p.coalesce()
	m, n := p.NumConstraints(), p.NumVariables()
	sc := &ws.sc
	s := &ws.s
	*s = simplex{p: p, m: m, n: n, opt: opt, sc: sc}
	nc := n + m
	s.cost = growF(sc.cost, nc)
	s.lo = growF(sc.lo, nc)
	s.hi = growF(sc.hi, nc)
	s.stat = growStat(sc.stat, nc)
	copy(s.lo, p.lo)
	copy(s.hi, p.hi)
	for i := 0; i < m; i++ {
		switch p.sense[i] {
		case LE:
			s.lo[n+i], s.hi[n+i] = 0, Inf
		case GE:
			s.lo[n+i], s.hi[n+i] = -Inf, 0
		case EQ:
			s.lo[n+i], s.hi[n+i] = 0, 0
		}
	}
	s.structCost = growF(sc.structCost, nc)
	copy(s.structCost, p.cost)
	for j := n; j < nc; j++ {
		s.structCost[j] = 0
	}
	copy(s.cost, s.structCost)
	s.acols = growCols(sc.acols, nc)
	for j := 0; j < n; j++ {
		s.acols[j] = p.cols[j]
	}
	sc.slack = growNZ(sc.slack, m)
	for i := 0; i < m; i++ {
		sc.slack[i] = nz{row: i, val: 1}
		s.acols[n+i] = sc.slack[i : i+1 : i+1]
	}
	sc.art = growNZ(sc.art, m)
	s.basis = growI(sc.basis, m)
	s.dense = opt.DenseBasis
	if s.dense {
		s.binv = growF(sc.binv, m*m)
	} else {
		s.binv = sc.binv // untouched; preserves capacity for dense users
		if sc.lu == nil {
			sc.lu = newLUFactor()
		}
		s.lu = sc.lu
		s.lu.touches = 0
		s.lu.fillCreated = 0
	}
	s.xB = growF(sc.xB, m)
	s.y = growF(sc.y, m)
	s.w = growF(sc.w, m)
	s.rho = growF(sc.rho, m)
	s.tmp = growF(sc.tmp, m)
	s.wf = growF(sc.wf, m)
	s.d = growF(sc.d, nc)
	s.artRow = sc.artRow[:0]
	s.artSign = sc.artSign[:0]
	return s
}

// release writes the solve's (possibly regrown) slices back to the
// scratch and drops the references to the problem and the context. The
// final column statuses and basis rows stay readable for
// Workspace.Basis.
func (s *simplex) release() {
	sc := s.sc
	if sc == nil {
		return
	}
	s.sc = nil
	s.p, s.ctx = nil, nil
	sc.cost, sc.lo, sc.hi, sc.structCost = s.cost, s.lo, s.hi, s.structCost
	sc.stat = s.stat
	sc.acols = s.acols
	for j := range sc.acols {
		sc.acols[j] = nil // do not pin released problems' column storage
	}
	sc.basis, sc.binv, sc.xB = s.basis, s.binv, s.xB
	sc.y, sc.w, sc.rho, sc.tmp, sc.wf, sc.d = s.y, s.w, s.rho, s.tmp, s.wf, s.d
	sc.artRow, sc.artSign = s.artRow, s.artSign
}

func (s *simplex) ncols() int { return s.n + s.m + len(s.artRow) }

// luFillSoFar is the solve's cumulative LU fill-in, including fill
// carried from an abandoned warm-start attempt.
func (s *simplex) luFillSoFar() int {
	if s.lu == nil {
		return s.luFillCarry
	}
	return s.luFillCarry + s.lu.fillCreated
}

// column returns the nonzero entries of computational column j.
func (s *simplex) column(j int) []nz { return s.acols[j] }

// nbVal is the value a nonbasic column is held at.
func (s *simplex) nbVal(j int) float64 {
	switch s.stat[j] {
	case atLower:
		return s.lo[j]
	case atUpper:
		return s.hi[j]
	default:
		return 0 // freeNB
	}
}

// setNonbasicStatus picks the natural nonbasic status for column j.
func (s *simplex) setNonbasicStatus(j int) {
	switch {
	case !math.IsInf(s.lo[j], -1):
		s.stat[j] = atLower
	case !math.IsInf(s.hi[j], 1):
		s.stat[j] = atUpper
	default:
		s.stat[j] = freeNB
	}
}

// coldBasis installs the all-slack basis.
func (s *simplex) coldBasis() {
	for j := 0; j < s.n; j++ {
		s.setNonbasicStatus(j)
	}
	for i := 0; i < s.m; i++ {
		s.basis[i] = s.n + i
		s.stat[s.n+i] = isBasic
	}
	if s.dense {
		for i := range s.binv {
			s.binv[i] = 0
		}
		for i := 0; i < s.m; i++ {
			s.binv[i*s.m+i] = 1
		}
	} else if !s.rebuildSparse() {
		panic("lp: all-slack basis singular (internal error)")
	}
	s.sincefact = 0
	s.computeXB()
}

// factorize rebuilds the basis factorization (and xB) from the basis
// columns. It reports whether the basis is nonsingular.
func (s *simplex) factorize() bool {
	ok := s.rebuildDense
	if !s.dense {
		ok = s.rebuildSparse
	}
	if !ok() {
		return false
	}
	s.computeXB()
	s.sincefact = 0
	s.refacts++
	return true
}

// rebuildSparse refactorizes the sparse LU from the current basis
// columns (lu.go); the singleton pre-pass makes the dominant
// slack/artificial part of the basis a zero-fill triangularization.
func (s *simplex) rebuildSparse() bool {
	m := s.m
	f := s.lu
	if cap(f.bcols) < m {
		f.bcols = make([][]nz, m)
	}
	f.bcols = f.bcols[:m]
	for i := 0; i < m; i++ {
		f.bcols[i] = s.acols[s.basis[i]]
	}
	ok := f.factorize(m, f.bcols)
	for i := range f.bcols {
		f.bcols[i] = nil // do not pin released problems' column storage
	}
	return ok
}

// rebuildDense rebuilds the dense explicit inverse binv. It reports
// whether the basis is nonsingular.
//
// Simplex bases on these problems are dominated by unit columns (slacks
// and artificials); only a handful of structural columns are basic. With
// column order (units U, structurals V) and row order (uncovered R_V,
// covered R_U) the basis is the block matrix [[A, 0], [C, D]] with D
// diagonal (±1), so the inverse is assembled from the k×k block
// A = V restricted to R_V alone:
//
//	B^{-1} = [[A^{-1}, 0], [-D^{-1} C A^{-1}, D^{-1}]]
//
// which costs O(k³ + nnz·k) instead of the O(m³) of a dense elimination.
func (s *simplex) rebuildDense() bool {
	m := s.m
	if m == 0 {
		return true
	}
	// Classify basis columns: unit (slack/artificial, single ±1 entry)
	// versus structural. All temporaries are scratch-backed: factorize
	// runs on every warm start and every refactorEvery pivots, so its
	// allocations used to dominate a branch-and-bound profile.
	posOfRow := growI(s.sc.posOfRow, m) // covered row -> basis position (or -1)
	scale := growF(s.sc.fscale, m)
	s.sc.posOfRow, s.sc.fscale = posOfRow, scale
	for r := range posOfRow {
		posOfRow[r] = -1
	}
	structPos := s.sc.structPos[:0]
	for i, j := range s.basis {
		col := s.acols[j]
		if j >= s.n && len(col) == 1 {
			r := col[0].row
			if posOfRow[r] != -1 {
				return false // two unit columns on one row: singular
			}
			posOfRow[r] = i
			scale[r] = col[0].val // +1 for slacks, ±1 for artificials
			continue
		}
		structPos = append(structPos, i)
	}
	s.sc.structPos = structPos
	// Uncovered rows R_V, in ascending order, with a reverse index.
	k := len(structPos)
	rv := s.sc.rv[:0]
	rvIdx := growI(s.sc.rvIdx, m)
	s.sc.rvIdx = rvIdx
	for r := 0; r < m; r++ {
		rvIdx[r] = -1
		if posOfRow[r] == -1 {
			rvIdx[r] = len(rv)
			rv = append(rv, r)
		}
	}
	s.sc.rv = rv
	if len(rv) != k {
		return false // column/row count mismatch: singular
	}
	// A: structural basic columns restricted to the uncovered rows.
	a := growF(s.sc.fa, k*k)
	s.sc.fa = a
	for i := range a {
		a[i] = 0
	}
	for b, pos := range structPos {
		for _, e := range s.acols[s.basis[pos]] {
			if ai := rvIdx[e.row]; ai >= 0 {
				a[ai*k+b] += e.val
			}
		}
	}
	ainv := growF(s.sc.fainv, k*k)
	s.sc.fainv = ainv
	if !invertDense(a, ainv, k) {
		return false
	}
	// Assemble binv.
	for i := range s.binv {
		s.binv[i] = 0
	}
	// Structural positions: row = A^{-1} spread over the uncovered rows.
	for b, pos := range structPos {
		row := s.binv[pos*m : pos*m+m]
		for ai, r := range rv {
			row[r] = ainv[b*k+ai]
		}
	}
	// Unit positions: 1/scale on the covered row plus the correction
	// -1/scale * c^T A^{-1} over the uncovered rows, where c holds the
	// structural basic coefficients on that covered row.
	if k > 0 {
		// Bucket the structural basic coefficients by covered row once.
		cRows := growCRows(s.sc.cRows, m)
		for b, pos := range structPos {
			for _, e := range s.acols[s.basis[pos]] {
				if rvIdx[e.row] < 0 {
					cRows[e.row] = append(cRows[e.row], factorCoef{b: b, val: e.val})
				}
			}
		}
		s.sc.cRows = cRows
		for r := 0; r < m; r++ {
			pos := posOfRow[r]
			if pos < 0 {
				continue
			}
			inv := 1 / scale[r]
			s.binv[pos*m+r] = inv
			if len(cRows[r]) == 0 {
				continue
			}
			row := s.binv[pos*m : pos*m+m]
			for ai, rr := range rv {
				var z float64
				for _, e := range cRows[r] {
					z += e.val * ainv[e.b*k+ai]
				}
				row[rr] = -inv * z
			}
		}
	} else {
		for r := 0; r < m; r++ {
			pos := posOfRow[r]
			s.binv[pos*m+r] = 1 / scale[r]
		}
	}
	return true
}

// invertDense inverts a dense k×k row-major matrix via Gauss-Jordan with
// partial pivoting, writing the inverse into inv (len >= k*k, caller
// supplied so the hot path can reuse a scratch buffer).
func invertDense(a, inv []float64, k int) bool {
	for i := 0; i < k*k; i++ {
		inv[i] = 0
	}
	for i := 0; i < k; i++ {
		inv[i*k+i] = 1
	}
	for col := 0; col < k; col++ {
		piv, best := -1, 1e-10
		for r := col; r < k; r++ {
			if av := math.Abs(a[r*k+col]); av > best {
				best, piv = av, r
			}
		}
		if piv < 0 {
			return false
		}
		if piv != col {
			for x := 0; x < k; x++ {
				a[piv*k+x], a[col*k+x] = a[col*k+x], a[piv*k+x]
				inv[piv*k+x], inv[col*k+x] = inv[col*k+x], inv[piv*k+x]
			}
		}
		d := 1 / a[col*k+col]
		for x := 0; x < k; x++ {
			a[col*k+x] *= d
			inv[col*k+x] *= d
		}
		for r := 0; r < k; r++ {
			if r == col {
				continue
			}
			f := a[r*k+col]
			if f == 0 {
				continue
			}
			for x := 0; x < k; x++ {
				a[r*k+x] -= f * a[col*k+x]
				inv[r*k+x] -= f * inv[col*k+x]
			}
		}
	}
	return true
}

// computeXB recomputes the basic values from scratch.
func (s *simplex) computeXB() {
	t := s.tmp
	copy(t, s.p.rhs)
	for j := 0; j < s.ncols(); j++ {
		if s.stat[j] == isBasic {
			continue
		}
		xv := s.nbVal(j)
		if xv == 0 {
			continue
		}
		for _, e := range s.acols[j] {
			t[e.row] -= e.val * xv
		}
	}
	s.ftranVec(t, s.xB)
}

// ftranVec solves B·w = t for a dense row-space right-hand side t.
func (s *simplex) ftranVec(t, w []float64) {
	if !s.dense {
		s.lu.ftranDense(t, w)
		return
	}
	m := s.m
	for i := 0; i < m; i++ {
		var sum float64
		row := s.binv[i*m : i*m+m]
		for r := 0; r < m; r++ {
			sum += row[r] * t[r]
		}
		w[i] = sum
	}
}

// ftran returns w = B^{-1} * A_j.
func (s *simplex) ftran(j int, w []float64) {
	if !s.dense {
		s.lu.ftranCol(s.acols[j], j, w)
		return
	}
	m := s.m
	for i := range w {
		w[i] = 0
	}
	for _, e := range s.acols[j] {
		r, v := e.row, e.val
		for i := 0; i < m; i++ {
			w[i] += s.binv[i*m+r] * v
		}
	}
}

// duals returns y = c_B^T B^{-1}.
func (s *simplex) duals(y []float64) {
	m := s.m
	if !s.dense {
		cb := s.tmp
		for i := 0; i < m; i++ {
			cb[i] = s.cost[s.basis[i]]
		}
		s.lu.btran(cb, y)
		return
	}
	for i := range y {
		y[i] = 0
	}
	for k := 0; k < m; k++ {
		cb := s.cost[s.basis[k]]
		if cb == 0 {
			continue
		}
		row := s.binv[k*m : k*m+m]
		for i := 0; i < m; i++ {
			y[i] += cb * row[i]
		}
	}
}

// basisRow writes row r of B^{-1} into rho — the dual simplex pricing
// row. The dense path copies it from the explicit inverse; the sparse
// path solves B^T rho = e_r via BTRAN on a unit vector.
func (s *simplex) basisRow(r int, rho []float64) {
	m := s.m
	if s.dense {
		copy(rho, s.binv[r*m:r*m+m])
		return
	}
	e := s.tmp
	for i := 0; i < m; i++ {
		e[i] = 0
	}
	e[r] = 1
	s.lu.btran(e, rho)
}

// basisDrift returns the relative residual ‖B·x_B − (b − N·x_N)‖∞ of the
// current factored representation — the accumulated numerical error of
// the product-form updates. Uses tmp and rho as scratch, both free
// between pivots.
func (s *simplex) basisDrift() float64 {
	m := s.m
	if m == 0 {
		return 0
	}
	t := s.tmp
	copy(t, s.p.rhs)
	for j := 0; j < s.ncols(); j++ {
		if s.stat[j] == isBasic {
			continue
		}
		xv := s.nbVal(j)
		if xv == 0 {
			continue
		}
		for _, e := range s.acols[j] {
			t[e.row] -= e.val * xv
		}
	}
	bx := s.rho
	for i := 0; i < m; i++ {
		bx[i] = 0
	}
	for i := 0; i < m; i++ {
		if v := s.xB[i]; v != 0 {
			for _, e := range s.acols[s.basis[i]] {
				bx[e.row] += e.val * v
			}
		}
	}
	var worst, scale float64
	for i := 0; i < m; i++ {
		if a := math.Abs(t[i]); a > scale {
			scale = a
		}
		if d := math.Abs(bx[i] - t[i]); d > worst {
			worst = d
		}
	}
	return worst / (1 + scale)
}

// reduced returns d_j = c_j - y^T A_j.
func (s *simplex) reduced(j int, y []float64) float64 {
	d := s.cost[j]
	for _, e := range s.acols[j] {
		d -= y[e.row] * e.val
	}
	return d
}

// objValue is the current objective under the active (phase) costs.
func (s *simplex) objValue() float64 {
	var obj float64
	for i := 0; i < s.m; i++ {
		obj += s.cost[s.basis[i]] * s.xB[i]
	}
	for j := 0; j < s.ncols(); j++ {
		if s.stat[j] != isBasic && s.cost[j] != 0 {
			obj += s.cost[j] * s.nbVal(j)
		}
	}
	return obj
}

// pivot replaces basis[r] with column j. w = binv*A_j must be provided;
// t >= 0 is the step of the entering variable, sigma its direction, and
// leavingStat the bound the leaving variable lands on (for the primal
// simplex that is the bound in the direction of movement; for the dual
// simplex it is the violated bound).
func (s *simplex) pivot(r, j int, w []float64, t, sigma float64, leavingStat colStatus) {
	m := s.m
	if t <= 1e-10 {
		s.degen++
	}
	enterVal := s.nbVal(j) + sigma*t
	for i := 0; i < m; i++ {
		if i != r {
			s.xB[i] -= sigma * w[i] * t
		}
	}
	leaving := s.basis[r]
	s.stat[leaving] = leavingStat
	// A leaving free variable ends nonbasic at zero.
	if math.IsInf(s.lo[leaving], -1) && math.IsInf(s.hi[leaving], 1) {
		s.stat[leaving] = freeNB
	}
	s.basis[r] = j
	s.stat[j] = isBasic
	s.xB[r] = enterVal
	if s.dense {
		s.pivotDense(r, w)
		return
	}
	s.pivotSparse(r, j)
}

// pivotDense applies the product-form eta update to the explicit inverse
// and the dense refactorization policy: a drift-triggered rebuild when
// the accumulated update error exceeds tolerance, with the fixed
// pivot-count cadence kept as a backstop.
func (s *simplex) pivotDense(r int, w []float64) {
	m := s.m
	// binv update: row r scaled by 1/w_r, eliminated from other rows.
	wr := w[r]
	inv := 1 / wr
	rrow := s.binv[r*m : r*m+m]
	for k := range rrow {
		rrow[k] *= inv
	}
	for i := 0; i < m; i++ {
		if i == r || w[i] == 0 {
			continue
		}
		f := w[i]
		irow := s.binv[i*m : i*m+m]
		for k := range irow {
			irow[k] -= f * rrow[k]
		}
	}
	s.etaUp++ // product-form update applied instead of a refactorization
	s.sincefact++
	refac := s.sincefact >= refactorEvery
	if !refac && s.sincefact%driftCheckEvery == 0 && s.basisDrift() > driftRefactorTol {
		s.refactsTrig++
		refac = true
	}
	if refac {
		if !s.factorize() {
			// Should not happen for a basis we just pivoted; keep the
			// product-form inverse if it does.
			s.sincefact = 0
		}
	}
}

// pivotSparse replaces the leaving column's U column with the entering
// column's spike (Forrest–Tomlin), refactorizing when the update is
// unstable, when fill has grown past the adaptive threshold, or at the
// update-count backstop. A refactorization failure (numerically singular
// pivoted basis) latches broken; the pivot loops unwind with
// IterationLimit.
func (s *simplex) pivotSparse(r, j int) {
	if s.lu.spikeCol != j {
		// The spike cache belongs to a different column (defensive: every
		// current caller runs ftran(j) immediately before pivoting).
		s.ftran(j, s.w)
	}
	if !s.lu.ftUpdate(r) {
		// Unstable update diagonal: rebuild from the exchanged basis.
		s.refactsTrig++
		if !s.factorize() {
			s.broken = true
		}
		return
	}
	s.ftUp++
	s.sincefact++
	if s.lu.fillExceeded() {
		s.refactsTrig++
		if !s.factorize() {
			s.broken = true
		}
	} else if s.lu.updates >= luMaxUpdates {
		if !s.factorize() {
			s.broken = true
		}
	}
}

// movable reports whether column j's bounds leave it room to move: only
// such a column can enter the basis.
func (s *simplex) movable(j int) bool {
	return s.hi[j]-s.lo[j] > 0 || s.stat[j] == freeNB
}

// movableCols lists, in column order, the movable columns: the only ones
// pricing can pick. Bounds stay put within one primal() run, so it
// builds the list once instead of testing every column on every
// iteration.
func (s *simplex) movableCols() []int {
	movable := s.sc.movable[:0]
	for j := 0; j < s.ncols(); j++ {
		if s.movable(j) {
			movable = append(movable, j)
		}
	}
	s.sc.movable = movable
	return movable
}

// primal runs primal simplex iterations under the current costs until
// optimality, unboundedness or the iteration limit.
func (s *simplex) primal() Status {
	m := s.m
	y, w := s.y, s.w
	dtol := s.opt.Tol
	s.stall, s.bland = 0, false
	s.lastObj = math.Inf(1)
	movable := s.movableCols()
	for {
		if s.iters >= s.opt.MaxIters {
			return IterationLimit
		}
		if s.iters%cancelCheckEvery == 0 && s.ctxDone() {
			return IterationLimit
		}
		s.iters++
		s.duals(y)
		// Entering column selection.
		enter, bestScore := -1, dtol
		var enterSigma float64
		for _, j := range movable {
			st := s.stat[j]
			if st == isBasic {
				continue
			}
			d := s.reduced(j, y)
			var sigma float64
			switch st {
			case atLower:
				if d < -dtol {
					sigma = 1
				}
			case atUpper:
				if d > dtol {
					sigma = -1
				}
			case freeNB:
				if d < -dtol {
					sigma = 1
				} else if d > dtol {
					sigma = -1
				}
			}
			if sigma == 0 {
				continue
			}
			if s.bland {
				enter, enterSigma = j, sigma
				break
			}
			if score := math.Abs(d); score > bestScore {
				bestScore, enter, enterSigma = score, j, sigma
			}
		}
		if enter < 0 {
			return Optimal
		}
		s.ftran(enter, w)

		// Ratio test: the entering variable moves by sigma*t, t >= 0.
		tBest := s.hi[enter] - s.lo[enter] // own range (Inf for free)
		if s.stat[enter] == freeNB {
			tBest = math.Inf(1)
		}
		rBest := -1
		ptol := 1e-9
		for i := 0; i < m; i++ {
			v := enterSigma * w[i]
			bj := s.basis[i]
			var lim float64
			switch {
			case v > ptol:
				if math.IsInf(s.lo[bj], -1) {
					continue
				}
				lim = (s.xB[i] - s.lo[bj]) / v
			case v < -ptol:
				if math.IsInf(s.hi[bj], 1) {
					continue
				}
				lim = (s.hi[bj] - s.xB[i]) / (-v)
			default:
				continue
			}
			if lim < 0 {
				lim = 0
			}
			if lim < tBest-1e-10 || (lim < tBest+1e-10 && rBest >= 0 &&
				math.Abs(w[i]) > math.Abs(w[rBest])) {
				tBest, rBest = lim, i
			}
		}
		if math.IsInf(tBest, 1) {
			return Unbounded
		}
		if rBest < 0 {
			// Bound flip: entering travels to its opposite bound.
			s.flips++
			t := tBest
			for i := 0; i < m; i++ {
				s.xB[i] -= enterSigma * w[i] * t
			}
			if s.stat[enter] == atLower {
				s.stat[enter] = atUpper
			} else {
				s.stat[enter] = atLower
			}
		} else {
			leavingStat := atUpper
			if enterSigma*w[rBest] > 0 { // basic value decreased to its lower bound
				leavingStat = atLower
			}
			s.pivot(rBest, enter, w, tBest, enterSigma, leavingStat)
			if s.broken {
				return IterationLimit
			}
		}
		// Anti-cycling: switch to Bland's rule when stalled.
		obj := s.objValue()
		if obj < s.lastObj-s.opt.Tol {
			s.lastObj, s.stall = obj, 0
			s.bland = false
		} else {
			s.stall++
			if s.stall > 2*(s.m+s.ncols()) {
				s.bland = true
			}
		}
	}
}

// infeasibility returns the sum of all basic bound violations (the
// dual's primal progress measure used for stall detection) and the
// largest one with its row (-1 when the basis is primal feasible).
func (s *simplex) infeasibility() (sum, worst float64, row int) {
	row = -1
	for i := 0; i < s.m; i++ {
		bj := s.basis[i]
		if v := s.lo[bj] - s.xB[i]; v > 0 {
			sum += v
			if v > worst {
				worst, row = v, i
			}
		}
		if v := s.xB[i] - s.hi[bj]; v > 0 {
			sum += v
			if v > worst {
				worst, row = v, i
			}
		}
	}
	return sum, worst, row
}

// breakpoint is one candidate of the dual ratio test: column j's reduced
// cost reaches zero at dual step t, and a = |α_j| is the rate at which
// passing it (flipping j to its other bound) shrinks the leaving row's
// infeasibility per unit of j's range.
type breakpoint struct {
	j    int
	t, a float64
}

// before orders breakpoints by dual step, ties going to the larger |α|
// (the stabler pivot) and then to the lower column index, so the order is
// total and the choice never depends on where a candidate was collected.
func (x breakpoint) before(y breakpoint) bool {
	if x.t != y.t {
		return x.t < y.t
	}
	if x.a != y.a {
		return x.a > y.a
	}
	return x.j < y.j
}

// price recomputes the reduced costs from fresh duals: d_j = c_j − yᵀA_j
// on the nonbasic columns that can move. Basic and fixed columns get
// zero; no ratio test reads them.
func (s *simplex) price() {
	s.duals(s.y)
	for j := 0; j < s.ncols(); j++ {
		if s.stat[j] == isBasic || !s.movable(j) {
			s.d[j] = 0
			continue
		}
		s.d[j] = s.reduced(j, s.y)
	}
}

// pivotRow computes the pivot row α_j = ρᵀA_j row-wise: only ρ's nonzero
// rows are read, from the problem's row-major copy, and the columns they
// meet are returned. The dual runs before any artificial column exists,
// so slack n+i is the only other column on row i. Rows are visited in
// ascending order, the order a column-wise dot product would sum in.
func (s *simplex) pivotRow(rho []float64) []int {
	sc, p := s.sc, s.p
	touched := sc.touched[:0]
	for i, ri := range rho {
		if ri == 0 {
			continue
		}
		for _, e := range p.rowEnts[p.rowStart[i]:p.rowStart[i+1]] {
			if !sc.seen[e.col] {
				sc.seen[e.col] = true
				touched = append(touched, e.col)
			}
			sc.alpha[e.col] += ri * e.val
		}
		sl := s.n + i
		sc.seen[sl] = true
		sc.alpha[sl] = ri
		touched = append(touched, sl)
	}
	sc.touched = touched
	return touched
}

// clearPivotRow returns alpha and seen to all-zero.
func (s *simplex) clearPivotRow(touched []int) {
	for _, j := range touched {
		s.sc.alpha[j] = 0
		s.sc.seen[j] = false
	}
}

// dual runs dual simplex iterations until primal feasibility (returning
// Optimal if dual feasibility was maintained), infeasibility, or the
// iteration limit. A stall guard bails out with IterationLimit when the
// total infeasibility stops decreasing, so the caller can fall back to
// the two-phase primal.
//
// Each iteration picks the most infeasible basic row r, computes its
// pivot row α = ρᵀA with ρ = e_rᵀB⁻¹ (pivotRow) and runs the
// bound-flipping ratio test: the breakpoints are passed in order while
// the dual objective's slope, the row's remaining infeasibility, stays
// positive; every passed boxed column moves to its other bound, all of
// them with one FTRAN of their summed columns, and the column at the
// stopping breakpoint enters. When every breakpoint is passed and the row
// is still infeasible, the LP is.
//
// On entry s.d must hold the reduced costs of the current basis, as
// dualFeasible leaves them. Each pivot updates them along the pivot row
// (d_j −= θ·α_j, d_leaving = −θ); every refactorization reprices them
// from scratch.
func (s *simplex) dual() Status {
	m := s.m
	rho, w, wf, t := s.rho, s.w, s.wf, s.tmp
	sc := s.sc
	tol := s.opt.Tol
	stall := 0
	lastInf := math.Inf(1)
	nc := s.ncols()
	sc.alpha = growF(sc.alpha, nc)
	sc.seen = growBool(sc.seen, nc) // cleared
	clear(sc.alpha)
	alpha := sc.alpha
	for {
		if s.iters >= s.opt.MaxIters {
			return IterationLimit
		}
		if s.iters%cancelCheckEvery == 0 && s.ctxDone() {
			return IterationLimit
		}
		s.iters++
		inf, viol, r := s.infeasibility()
		if inf < lastInf-tol {
			lastInf, stall = inf, 0
		} else {
			stall++
			if stall > 2*(s.m+64) {
				return IterationLimit // cycling/stalling: let primal take over
			}
		}
		if r < 0 || viol <= tol {
			return Optimal
		}
		bj := s.basis[r]
		toLower := s.xB[r] < s.lo[bj]
		bound := s.hi[bj]
		if toLower {
			bound = s.lo[bj]
		}
		s.basisRow(r, rho)
		touched := s.pivotRow(rho)
		cands := sc.cands[:0]
		for _, j := range touched {
			st := s.stat[j]
			if st == isBasic || !s.movable(j) {
				continue
			}
			a := alpha[j]
			if math.Abs(a) < 1e-9 {
				continue
			}
			// x_j moving by Δ moves xB[r] by −α_j·Δ. The eligible
			// columns move xB[r] toward its violated bound: up when α_j
			// has the sign of xB[r] − bound.
			up := (a > 0) != toLower
			var dj float64 // ≥ 0 while j is dual feasible
			switch st {
			case atLower:
				if !up {
					continue
				}
				dj = s.d[j]
			case atUpper:
				if up {
					continue
				}
				dj = -s.d[j]
			default: // freeNB moves either way
				dj = math.Abs(s.d[j])
			}
			cands = append(cands, breakpoint{j: j, t: max(dj, 0) / math.Abs(a), a: math.Abs(a)})
		}
		sc.cands = cands

		// Pass breakpoints in order (a partial selection sort: most
		// iterations stop at the first or second) while the slope stays
		// positive.
		slope := math.Abs(s.xB[r] - bound)
		k := 0
		for ; k < len(cands); k++ {
			best := k
			for i := k + 1; i < len(cands); i++ {
				if cands[i].before(cands[best]) {
					best = i
				}
			}
			cands[k], cands[best] = cands[best], cands[k]
			c := cands[k]
			rng := s.hi[c.j] - s.lo[c.j]
			if s.stat[c.j] == freeNB || math.IsInf(rng, 1) {
				break // a column without a far bound cannot be passed
			}
			next := slope - c.a*rng
			if next <= 0 {
				break
			}
			slope = next
		}
		if k == len(cands) {
			if k == 0 || slope > tol {
				s.clearPivotRow(touched)
				return Infeasible // every flip leaves row r infeasible
			}
			k-- // feasible within tolerance: the last breakpoint enters
		}
		enter := cands[k].j
		passed := cands[:k]

		// The flips' summed column, FTRAN'd before the entering column so
		// that the entering column's spike stays cached for the update.
		if len(passed) > 0 {
			clear(t)
			for _, c := range passed {
				step := s.hi[c.j] - s.lo[c.j]
				if s.stat[c.j] == atUpper {
					step = -step
				}
				for _, e := range s.acols[c.j] {
					t[e.row] += e.val * step
				}
			}
			s.ftranVec(t, wf)
		}
		s.ftran(enter, w)
		if dualBreakdownHook != nil {
			dualBreakdownHook(s, w, r)
		}
		if math.Abs(w[r]) < 1e-10 {
			// Numerical breakdown: refactorize and retry once.
			s.clearPivotRow(touched)
			if !s.factorize() {
				return IterationLimit
			}
			s.price()
			continue
		}
		if len(passed) > 0 {
			for i := 0; i < m; i++ {
				s.xB[i] -= wf[i]
			}
			for _, c := range passed {
				if s.stat[c.j] == atLower {
					s.stat[c.j] = atUpper
				} else {
					s.stat[c.j] = atLower
				}
			}
			s.flips += len(passed)
		}

		// The dual step θ moves d_j by −θ·α_j and leaves d_enter at zero;
		// its sign keeps the leaving column's d = −θ dual feasible on the
		// bound it leaves at.
		theta := cands[k].t
		if toLower {
			theta = -theta
		}
		for _, j := range touched {
			if s.stat[j] != isBasic {
				s.d[j] -= theta * alpha[j]
			}
		}
		s.d[enter], s.d[bj] = 0, -theta
		delta := (s.xB[r] - bound) / alpha[enter]
		s.clearPivotRow(touched)
		sigma := 1.0
		if delta < 0 {
			sigma = -1
		}
		leavingStat := atUpper
		if toLower {
			leavingStat = atLower
		}
		refacts := s.refacts
		s.pivot(r, enter, w, math.Abs(delta), sigma, leavingStat)
		if s.broken {
			return IterationLimit
		}
		if s.refacts != refacts {
			s.price()
		}
	}
}

// installPhase1 adds artificial columns for every violated row and sets
// phase-1 costs. It returns true if any artificials were needed.
func (s *simplex) installPhase1() bool {
	tol := s.opt.Tol
	needed := false
	for i := 0; i < s.m; i++ {
		bj := s.basis[i]
		v := s.xB[i]
		if v >= s.lo[bj]-tol && v <= s.hi[bj]+tol {
			continue
		}
		needed = true
		// Park the (slack) basic column at its nearest bound and let an
		// artificial absorb the residual.
		var parked float64
		if v < s.lo[bj] {
			parked = s.lo[bj]
			s.stat[bj] = atLower
		} else {
			parked = s.hi[bj]
			s.stat[bj] = atUpper
		}
		resid := v - parked // artificial carries this, with matching sign
		sign := 1.0
		if resid < 0 {
			sign = -1
		}
		s.artRow = append(s.artRow, i)
		s.artSign = append(s.artSign, sign)
		s.sc.art[i] = nz{row: i, val: sign}
		s.acols = append(s.acols, s.sc.art[i:i+1:i+1])
		s.cost = append(s.cost, 0)
		s.lo = append(s.lo, 0)
		s.hi = append(s.hi, Inf)
		s.stat = append(s.stat, isBasic)
		s.structCost = append(s.structCost, 0)
		s.basis[i] = s.ncols() - 1
		s.xB[i] = math.Abs(resid)
	}
	if !needed {
		return false
	}
	// Phase-1 costs: artificials 1, everything else 0.
	for j := 0; j < s.n+s.m; j++ {
		s.cost[j] = 0
	}
	for k := 0; k < len(s.artRow); k++ {
		s.cost[s.n+s.m+k] = 1
	}
	// The basis changed structurally (identity with flipped signs on
	// artificial rows is still triangular): rebuild binv.
	if !s.factorize() {
		panic("lp: phase-1 basis singular") // cannot happen: ±unit diagonal
	}
	return true
}

// finishPhase1 locks artificials at zero and restores the real costs.
func (s *simplex) finishPhase1() {
	for k := 0; k < len(s.artRow); k++ {
		j := s.n + s.m + k
		s.lo[j], s.hi[j] = 0, 0
		if s.stat[j] != isBasic {
			s.stat[j] = atLower
		}
	}
	copy(s.cost, s.structCost)
}

// extract builds the Result from the final state in the scratch's
// Result and solution buffers; the Workspace owns both.
func (s *simplex) extract(st Status) *Result {
	res := &s.sc.res
	*res = Result{Status: st, Iterations: s.iters,
		Refactorizations: s.refacts, DegeneratePivots: s.degen, BoundFlips: s.flips,
		EtaUpdates: s.etaUp, FTUpdates: s.ftUp, LUFill: s.luFillSoFar(),
		RefactorsTriggered: s.refactsTrig}
	if st != Optimal {
		return res
	}
	xd := growF(s.sc.xd, s.n+s.m)
	s.sc.xd = xd
	x := xd[:s.n:s.n]
	for j := 0; j < s.n; j++ {
		if s.stat[j] == isBasic {
			x[j] = 0
			continue
		}
		x[j] = s.nbVal(j)
	}
	for i := 0; i < s.m; i++ {
		if b := s.basis[i]; b < s.n {
			x[b] = s.xB[i]
		}
	}
	var obj float64
	for j := 0; j < s.n; j++ {
		obj += s.p.cost[j] * x[j]
	}
	res.Objective = obj
	res.X = x
	res.Duals = xd[s.n:]
	s.duals(res.Duals)
	return res
}

// Basis exports the final basis of the Workspace's last solve over the
// structural and slack columns. It is valid only after a solve that
// returned Optimal, and allocates a new Basis each call. If an artificial
// is still basic (redundant row), the row's slack is recorded instead; a
// warm start will re-factorize and fall back on singularity.
func (ws *Workspace) Basis() *Basis {
	s := &ws.s
	b := &Basis{stat: make([]colStatus, s.n+s.m), rows: make([]int, s.m)}
	copy(b.stat, s.stat[:s.n+s.m])
	for i := 0; i < s.m; i++ {
		col := s.basis[i]
		if col >= s.n+s.m {
			col = s.n + i
			b.stat[col] = isBasic
		}
		b.rows[i] = col
	}
	return b
}

// Solve optimizes the problem from a cold (all-slack) start.
func (p *Problem) Solve(opt Options) (*Result, error) {
	return p.SolveCtx(context.Background(), opt)
}

// SolveCtx is Solve with cooperative cancellation: the pivot loops poll
// ctx every cancelCheckEvery iterations and abort with a *CanceledError
// when it is done. The problem is left unchanged by an aborted solve.
func (p *Problem) SolveCtx(ctx context.Context, opt Options) (*Result, error) {
	return p.SolveFromCtx(ctx, nil, opt)
}

// SolveFrom optimizes the problem warm-starting from basis (typically the
// parent node's optimal basis in branch and bound, after bound changes).
// A nil or incompatible basis falls back to a cold start. The dual simplex
// is tried first when the start is dual feasible.
func (p *Problem) SolveFrom(basis *Basis, opt Options) (*Result, error) {
	return p.SolveFromCtx(context.Background(), basis, opt)
}

// SolveFromCtx is SolveFrom with cooperative cancellation (see SolveCtx).
// The Result owns its X, Duals and (for Optimal) Basis.
func (p *Problem) SolveFromCtx(ctx context.Context, basis *Basis, opt Options) (*Result, error) {
	ws := workspacePool.Get().(*Workspace)
	defer workspacePool.Put(ws)
	res, err := ws.SolveFrom(ctx, p, basis, opt)
	if err != nil {
		return nil, err
	}
	out := *res
	if res.Status == Optimal {
		xd := append([]float64(nil), ws.sc.xd...)
		out.X, out.Duals = xd[:len(res.X):len(res.X)], xd[len(res.X):]
		out.Basis = ws.Basis()
	}
	return &out, nil
}

// SolveFrom is Problem.SolveFromCtx on the Workspace's buffers. The
// Result, its X and its Duals belong to the Workspace and are overwritten
// by its next solve; Result.Basis is nil, and Workspace.Basis exports the
// final basis when a caller needs one.
func (ws *Workspace) SolveFrom(ctx context.Context, p *Problem, basis *Basis, opt Options) (*Result, error) {
	if opt.Trace == nil {
		return ws.solve(ctx, p, basis, opt)
	}
	// An "lp.solve" span around the solve.
	fields := []obs.Field{
		obs.Int("cols", int64(p.NumVariables())),
		obs.Int("rows", int64(p.NumConstraints())),
	}
	if tid := obs.TraceIDFrom(ctx); tid != "" {
		fields = append(fields, obs.Str("trace", tid))
	}
	span := opt.Trace.StartSpan("lp.solve", fields...)
	res, err := ws.solve(ctx, p, basis, opt)
	if err != nil {
		span.End(obs.Str("status", "error"))
		return res, err
	}
	span.End(obs.Str("status", res.Status.String()),
		obs.Int("iters", int64(res.Iterations)),
		obs.Bool("warm", res.WarmStarted))
	return res, err
}

func (ws *Workspace) solve(ctx context.Context, p *Problem, basis *Basis, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := ws.start(p, opt)
	defer s.release()
	s.ctx = ctx
	if basis == nil || len(basis.stat) != s.n+s.m || len(basis.rows) != s.m {
		s.coldBasis()
		return s.run()
	}
	copy(s.stat, basis.stat)
	copy(s.basis, basis.rows)
	// Bounds may have changed: snap nonbasic columns onto existing bounds.
	for j := 0; j < s.n+s.m; j++ {
		if s.stat[j] == isBasic {
			continue
		}
		switch s.stat[j] {
		case atLower:
			if math.IsInf(s.lo[j], -1) {
				s.setNonbasicStatus(j)
			}
		case atUpper:
			if math.IsInf(s.hi[j], 1) {
				s.setNonbasicStatus(j)
			}
		}
	}
	if !s.factorize() {
		s.coldBasis()
		return s.run()
	}
	if s.dualFeasible() {
		st := s.dual()
		if s.canceled {
			return nil, s.cancelErr()
		}
		switch st {
		case Optimal:
			// Polish with primal (terminates immediately if optimal).
			st = s.primal()
			if s.canceled {
				return nil, s.cancelErr()
			}
			if st == Optimal {
				res := s.extract(st)
				res.WarmStarted = true
				return res, nil
			}
		case Infeasible:
			res := s.extract(Infeasible)
			res.WarmStarted = true
			return res, nil
		}
		// Fall through to the warm primal repair on limit/unbounded oddities.
	} else {
		// Dual-infeasible warm basis (the common case after an objective or
		// coefficient change): repair it in place with the two-phase primal.
		// installPhase1 adds artificials only for the violated rows, so this
		// still reuses most of the parent basis instead of restarting from
		// all slacks.
		res, err := s.run()
		if err != nil {
			if s.canceled {
				return nil, err
			}
		} else if res.Status == Optimal || res.Status == Infeasible {
			res.WarmStarted = true
			return res, nil
		}
		// Limit/unbounded oddity from the repaired basis: go cold below.
	}
	// Fall back to a cold two-phase primal solve on the same scratch; carry
	// the telemetry of the abandoned warm attempt so the counters stay
	// truthful (the iteration budget is intentionally per-attempt, as
	// before).
	refacts, degen, flips, etaUp := s.refacts, s.degen, s.flips, s.etaUp
	ftUp, trig, fill := s.ftUp, s.refactsTrig, s.luFillSoFar()
	s.release()
	s = ws.start(p, opt)
	s.ctx = ctx
	s.refacts, s.degen, s.flips, s.etaUp = refacts, degen, flips, etaUp
	s.ftUp, s.refactsTrig, s.luFillCarry = ftUp, trig, fill
	s.coldBasis()
	return s.run()
}

// dualFeasible reports whether the current basis prices out dual
// feasible. It prices every column, which seeds the reduced costs the
// dual simplex keeps.
func (s *simplex) dualFeasible() bool {
	s.price()
	tol := s.opt.Tol * 10
	for j := 0; j < s.ncols(); j++ {
		st := s.stat[j]
		if st == isBasic || s.hi[j]-s.lo[j] <= 0 {
			continue
		}
		d := s.d[j]
		switch st {
		case atLower:
			if d < -tol {
				return false
			}
		case atUpper:
			if d > tol {
				return false
			}
		case freeNB:
			if math.Abs(d) > tol {
				return false
			}
		}
	}
	return true
}

// run executes the two-phase primal method from the current basis.
func (s *simplex) run() (*Result, error) {
	if s.installPhase1() {
		s.phase1 = true
		st := s.primal()
		if s.canceled {
			return nil, s.cancelErr()
		}
		if st == IterationLimit {
			return s.extract(IterationLimit), nil
		}
		if st == Unbounded {
			return nil, fmt.Errorf("lp: phase-1 unbounded (internal error)")
		}
		if s.objValue() > s.opt.Tol*float64(1+s.m) {
			return s.extract(Infeasible), nil
		}
		s.finishPhase1()
		s.phase1 = false
	}
	st := s.primal()
	if s.canceled {
		return nil, s.cancelErr()
	}
	return s.extract(st), nil
}
