package mip

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/lp"
	"repro/internal/obs"
)

// Parallel branch and bound: N workers pull nodes off a shared
// mutex-guarded best-bound heap, solve each node's LP relaxation on a
// private clone of the (cut-tightened) root problem with their own
// nodeSolver, and push children back. Nodes are the serial search's:
// each worker rebuilds a node's bounds from the shared, immutable parent
// chain. Incumbent objectives are mirrored in an atomic word so workers
// can prune mid-pipeline without taking the pool lock; all structural
// state (queue, incumbent vector, logs, telemetry) lives under one
// mutex, which is cheap because LP solves dominate the per-node cost.
//
// The root node is processed serially first (root relaxation, cover
// cuts, heuristic, initial branching) with exactly the serial solver's
// code path, so cut separation mutates the shared problem before any
// clone is taken.

// pbb is the shared state of one parallel solve.
type pbb struct {
	s *solver

	mu   sync.Mutex
	cond *sync.Cond
	// queue and seq continue the root phase's heap and node numbering.
	queue *nodeQueue
	seq   int
	// inFlight maps worker id -> bound of the node it is solving. The
	// global lower bound at any instant is min(queue top, inFlight), which
	// keeps the observed bound trajectory monotone even though workers
	// pop nodes out from under each other.
	inFlight    map[int]float64
	outstanding int // nodes popped but not yet fully processed
	stopped     bool
	limited     bool
	failErr     error

	// incBits mirrors s.incumbentObj (math.Float64bits) for lock-free
	// prune-on-read between the LP solve and the locked result handling.
	incBits atomic.Uint64
}

func (b *pbb) storeIncBits() { b.incBits.Store(math.Float64bits(b.s.incumbentObj)) }

// incObj returns the mirrored incumbent objective (+Inf when none).
func (b *pbb) incObj() float64 { return math.Float64frombits(b.incBits.Load()) }

// stopLocked latches a stop condition and wakes idle workers.
func (b *pbb) stopLocked() {
	b.stopped = true
	b.cond.Broadcast()
}

// runParallel is the Workers>1 counterpart of solver.run.
func (s *solver) runParallel() (*Result, error) {
	queue := &nodeQueue{}
	s.queue = queue
	b := &pbb{s: s, queue: queue, seq: 1, inFlight: make(map[int]float64)}
	b.cond = sync.NewCond(&b.mu)
	b.storeIncBits()

	// Root phase (serial): solve the root relaxation on the shared
	// problem, tighten with cover cuts, then branch. Any terminal outcome
	// here returns without spinning up workers.
	done, res, err := s.rootPhase(b)
	if done {
		return res, err
	}

	// The workers evaluate incumbent candidates against the shared root
	// problem concurrently (read-only); force the lazy coalesce now.
	s.p.Freeze()

	var wg sync.WaitGroup
	for id := 0; id < s.opt.Workers; id++ {
		ns := getNodeSolver(s.p.Clone())
		wg.Add(1)
		s.cWorkers.Inc()
		go func(id int, ns *nodeSolver) {
			defer wg.Done()
			defer putNodeSolver(ns)
			b.worker(id, ns)
		}(id, ns)
	}
	wg.Wait()

	if b.failErr != nil {
		return nil, b.failErr
	}
	switch {
	case s.haveInc && !b.limited && queue.Len() == 0:
		return s.result(Optimal), nil
	case s.haveInc && s.opt.RelativeGap > 0 && !b.limited:
		// Queue drained under a gap limit: incumbent is within the gap.
		return s.result(Optimal), nil
	case s.haveInc:
		r := s.result(Feasible)
		// Best bound = min over remaining open nodes (or incumbent).
		bb := s.incumbentObj
		for _, nd := range *queue {
			if bd := s.strengthen(nd.bound); bd < bb {
				bb = bd
			}
		}
		r.BestBound = bb
		return r, nil
	case b.limited:
		return s.result(NoSolution), nil
	default:
		return s.result(Infeasible), nil
	}
}

// rootPhase explores the root node exactly like the serial loop does
// (including cut-and-branch, which mutates s.p before workers clone it).
// done=true means the solve terminated at the root.
func (s *solver) rootPhase(b *pbb) (done bool, _ *Result, _ error) {
	res, err := s.p.SolveFromCtx(s.lpCtx, nil, s.opt.LP)
	if err != nil {
		if errors.Is(err, lp.ErrCanceled) {
			if s.ctx.Err() != nil {
				return true, nil, NewCanceledError(context.Cause(s.ctx))
			}
			s.noteDeadline()
			if s.haveInc {
				return true, s.result(Feasible), nil // initial incumbent, bound unproven
			}
			return true, s.result(NoSolution), nil
		}
		return true, nil, err
	}
	s.nodes++
	s.countLP(res)
	s.observeBound(s.strengthen(res.Objective))
	switch res.Status {
	case lp.Infeasible:
		if s.haveInc {
			return true, s.result(Optimal), nil // initial incumbent is all there is
		}
		return true, s.result(Infeasible), nil
	case lp.Unbounded:
		return true, s.result(Unbounded), nil
	case lp.IterationLimit:
		if s.haveInc {
			r := s.result(Feasible)
			r.BestBound = s.incumbentObj // no open nodes to bound from
			return true, r, nil
		}
		return true, s.result(NoSolution), nil
	}
	bound := s.strengthen(res.Objective)
	if s.haveInc && bound >= s.incumbentObj-1e-9 {
		return true, s.result(Optimal), nil
	}
	branchCol := s.fractional(res.X)
	if branchCol < 0 {
		if err := s.tryIncumbent(res.X, nil, "lp"); err != nil {
			return true, nil, fmt.Errorf("mip: integral LP solution rejected: %v", err)
		}
		b.storeIncBits()
		return true, s.result(Optimal), nil
	}
	if s.opt.RootCutRounds > 0 {
		tightened, nCuts, err := s.addRootCuts(res, s.opt.RootCutRounds)
		if err != nil {
			return true, nil, err
		}
		s.cuts = nCuts
		s.cCuts.Add(int64(nCuts))
		if nCuts > 0 {
			s.trace.Emit("mip.cuts", obs.Int("count", int64(nCuts)),
				obs.Float("bound", s.strengthen(tightened.Objective)))
			res = tightened
			bound = s.strengthen(res.Objective)
			if s.haveInc && bound >= s.incumbentObj-1e-9 {
				return true, s.result(Optimal), nil
			}
			branchCol = s.fractional(res.X)
			if branchCol < 0 {
				if err := s.tryIncumbent(res.X, nil, "lp"); err != nil {
					return true, nil, fmt.Errorf("mip: integral cut solution rejected: %v", err)
				}
				b.storeIncBits()
				return true, s.result(Optimal), nil
			}
		}
	}
	if s.opt.Heuristic != nil {
		if cand, ok := s.opt.Heuristic(res.X); ok {
			if obj, ok := s.improves(cand, s.incumbentObj, nil); ok {
				s.heurHit++
				s.cHeurHits.Inc()
				s.acceptIncumbent(cand, obj, "heuristic")
				b.storeIncBits()
			}
		}
	}
	if s.gapReached(bound) {
		return true, s.result(Optimal), nil
	}
	s.branch(b.queue, &b.seq, &node{bound: math.Inf(-1), branchCol: -1}, res, res.Basis, branchCol)
	return false, nil, nil
}

// noteDeadline records a TimeLimit stop (caller holds b.mu in parallel
// paths; the root phase is single-threaded).
func (s *solver) noteDeadline() {
	s.deadlineHit = true
	s.cDeadline.Inc()
	s.trace.Emit("mip.deadline", obs.Int("node", int64(s.nodes)))
}

// worker is one branch-and-bound worker loop. ns solves on the worker's
// private problem clone; id keys its inFlight entry.
func (b *pbb) worker(id int, ns *nodeSolver) {
	s := b.s
	for {
		b.mu.Lock()
		for b.queue.Len() == 0 && b.outstanding > 0 && !b.stopped {
			b.cond.Wait()
		}
		if b.stopped || b.queue.Len() == 0 {
			b.mu.Unlock()
			return
		}
		if s.nodes >= s.opt.MaxNodes {
			b.limited = true
			b.stopLocked()
			b.mu.Unlock()
			return
		}
		if s.ctx.Err() != nil {
			b.failErr = NewCanceledError(context.Cause(s.ctx))
			b.stopLocked()
			b.mu.Unlock()
			return
		}
		if s.timeUp() {
			s.noteDeadline()
			b.limited = true
			b.stopLocked()
			b.mu.Unlock()
			return
		}
		if s.stopRequested() {
			s.stopped = true
			s.trace.Emit("mip.stopped", obs.Int("node", int64(s.nodes)))
			b.limited = true
			b.stopLocked()
			b.mu.Unlock()
			return
		}
		nd := heap.Pop(b.queue).(*node)
		// Global bound: the popped node is the best open node, but a
		// sibling still in flight may carry a smaller bound.
		gb := nd.bound
		for _, fb := range b.inFlight {
			if fb < gb {
				gb = fb
			}
		}
		s.observeBound(s.strengthen(gb))
		if s.haveInc && s.strengthen(nd.bound) >= s.incumbentObj-1e-9 {
			s.pruned++
			s.cPruned.Inc()
			b.cond.Broadcast() // queue may have emptied: wake waiters to exit
			b.mu.Unlock()
			continue
		}
		b.inFlight[id] = nd.bound
		b.outstanding++
		b.mu.Unlock()

		res, err := ns.solve(s.lpCtx, nd, s.opt.LP)

		// Lock-free post-processing: everything that only reads immutable
		// state (options, integer set, frozen root problem) runs before
		// reacquiring the pool lock.
		var branchCol int
		var intObj, heurObj float64
		var intOK, heurOK bool
		var heurCand []float64
		if err == nil && res.Status == lp.Optimal {
			inc := b.incObj() // prune-on-read against the atomic mirror
			if s.strengthen(res.Objective) < inc-1e-9 {
				branchCol = s.fractional(res.X)
				if branchCol < 0 {
					intObj, err = s.evaluate(res.X, ns.act)
					if err != nil {
						err = fmt.Errorf("mip: integral LP solution rejected: %v", err)
					} else {
						intOK = true
					}
				} else if s.opt.Heuristic != nil {
					if cand, ok := s.opt.Heuristic(res.X); ok {
						if obj, ok := s.improves(cand, inc, ns.act); ok {
							heurCand, heurObj, heurOK = cand, obj, true
						}
					}
				}
			}
		}

		b.mu.Lock()
		delete(b.inFlight, id)
		b.outstanding--
		if err != nil {
			if errors.Is(err, lp.ErrCanceled) {
				if s.ctx.Err() != nil {
					b.failErr = NewCanceledError(context.Cause(s.ctx))
				} else {
					// Our own TimeLimit deadline interrupted the LP: requeue
					// the node so the best-bound proof over open nodes holds.
					heap.Push(b.queue, nd)
					s.noteDeadline()
					b.limited = true
				}
			} else {
				b.failErr = err
			}
			b.stopLocked()
			b.mu.Unlock()
			return
		}
		s.nodes++
		s.countLP(res)
		if s.nodes%s.opt.ProgressEvery == 0 {
			s.progress()
		}
		advance := func() {
			b.cond.Broadcast()
			b.mu.Unlock()
		}
		switch res.Status {
		case lp.Infeasible:
			advance()
			continue
		case lp.Unbounded:
			// Cannot happen below the root with finite branching bounds;
			// treat defensively as unexplorable.
			b.limited = true
			advance()
			continue
		case lp.IterationLimit:
			// No valid bound for this subtree: we must not prune it, and we
			// cannot explore it — give up on proving optimality.
			b.limited = true
			advance()
			continue
		}
		s.recordPseudocost(nd, res.Objective)
		bound := s.strengthen(res.Objective)
		if s.haveInc && bound >= s.incumbentObj-1e-9 {
			advance()
			continue
		}
		if intOK {
			if intObj < s.incumbentObj-1e-9 {
				s.acceptIncumbent(res.X, intObj, "lp")
				b.storeIncBits()
			}
			advance()
			continue
		}
		if heurOK && heurObj < s.incumbentObj-1e-9 {
			s.heurHit++
			s.cHeurHits.Inc()
			s.acceptIncumbent(heurCand, heurObj, "heuristic")
			b.storeIncBits()
		}
		if s.gapReached(bound) {
			advance()
			continue
		}
		s.branch(b.queue, &b.seq, nd, res, ns.childBasis(res), branchCol)
		advance()
	}
}
