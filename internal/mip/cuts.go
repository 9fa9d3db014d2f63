package mip

import (
	"errors"
	"math"
	"sort"

	"repro/internal/lp"
)

// Cover cuts (cut-and-branch): for a knapsack row sum(w_j x_j) <= C over
// binary columns with positive weights, any cover S (a set with
// sum_{j in S} w_j > C) yields the valid inequality
//
//	sum_{j in S} x_j <= |S| - 1.
//
// At the root we separate violated minimal covers against the LP
// relaxation and append them as rows, tightening every node of the
// subsequent branch and bound. The time-indexed scheduling model's
// capacity rows are exactly such knapsacks.

// knapsackRow describes a row eligible for cover separation.
type knapsackRow struct {
	cols    []int
	weights []float64
	cap     float64
}

// knapsackRows extracts the LE rows whose support is entirely binary
// columns with positive coefficients and positive capacity.
func knapsackRows(p *lp.Problem, isInt map[int]bool) []knapsackRow {
	m := p.NumConstraints()
	n := p.NumVariables()
	rows := make([]knapsackRow, m)
	eligible := make([]bool, m)
	for i := 0; i < m; i++ {
		sen, rhs := p.Row(i)
		if sen == lp.LE && rhs > 0 {
			eligible[i] = true
			rows[i].cap = rhs
		}
	}
	for j := 0; j < n; j++ {
		lo, hi := p.Bounds(j)
		binary := isInt[j] && lo >= 0 && hi <= 1
		p.VisitColumn(j, func(row int, v float64) {
			if !eligible[row] {
				return
			}
			if !binary || v <= 0 {
				eligible[row] = false
				return
			}
			rows[row].cols = append(rows[row].cols, j)
			rows[row].weights = append(rows[row].weights, v)
		})
	}
	out := rows[:0]
	for i := 0; i < m; i++ {
		if eligible[i] && len(rows[i].cols) >= 2 {
			out = append(out, rows[i])
		}
	}
	return out
}

// separateCover finds a violated minimal cover for the row against the
// fractional point x, or ok=false. The classic heuristic sorts columns by
// fractional value (descending) and greedily builds a cover, then
// minimizes it by dropping members while it remains a cover.
func separateCover(row knapsackRow, x []float64, tol float64) (cover []int, ok bool) {
	type cand struct {
		col    int
		w, val float64
	}
	cands := make([]cand, 0, len(row.cols))
	for k, c := range row.cols {
		cands = append(cands, cand{col: c, w: row.weights[k], val: x[c]})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].val != cands[b].val {
			return cands[a].val > cands[b].val
		}
		return cands[a].w > cands[b].w
	})
	var weight float64
	var chosen []cand
	for _, c := range cands {
		chosen = append(chosen, c)
		weight += c.w
		if weight > row.cap+1e-9 {
			break
		}
	}
	if weight <= row.cap+1e-9 {
		return nil, false // no cover exists among these columns
	}
	// Minimize: drop members (smallest x first) while still a cover.
	sort.Slice(chosen, func(a, b int) bool { return chosen[a].val < chosen[b].val })
	kept := chosen[:0]
	for i, c := range chosen {
		if weight-c.w > row.cap+1e-9 {
			weight -= c.w
			continue
		}
		kept = append(kept, chosen[i])
	}
	// Violation check: sum x > |S| - 1 + tol.
	var sum float64
	for _, c := range kept {
		sum += c.val
	}
	if sum <= float64(len(kept)-1)+tol {
		return nil, false
	}
	cover = make([]int, len(kept))
	for i, c := range kept {
		cover[i] = c.col
	}
	return cover, true
}

// addRootCuts runs up to maxRounds of cover separation at the root,
// appending violated cuts to the problem and re-solving the relaxation.
// It returns the final root LP result and the number of cuts added.
func (s *solver) addRootCuts(root *lp.Result, maxRounds int) (*lp.Result, int, error) {
	added := 0
	res := root
	isInt := make(map[int]bool, len(s.integer))
	for _, c := range s.integer {
		isInt[c] = true
	}
	for round := 0; round < maxRounds; round++ {
		rows := knapsackRows(s.p, isInt)
		newCuts := 0
		for _, row := range rows {
			cover, ok := separateCover(row, res.X, 1e-4)
			if !ok {
				continue
			}
			cut := s.p.AddConstraint(lp.LE, float64(len(cover)-1))
			for _, c := range cover {
				s.p.SetCoeff(cut, c, 1)
			}
			newCuts++
		}
		if newCuts == 0 {
			break
		}
		added += newCuts
		next, err := s.p.SolveCtx(s.lpCtx, s.opt.LP)
		if err != nil {
			if errors.Is(err, lp.ErrCanceled) && s.ctx.Err() == nil {
				// TimeLimit deadline during separation: the appended cuts
				// stay (they are valid inequalities); keep the previous
				// relaxation and let the node loop take the deadline path.
				return res, added, nil
			}
			return nil, added, err
		}
		s.lpSolves++
		s.cLPSolves.Inc()
		if next.Status != lp.Optimal {
			// Cuts are valid inequalities; a non-optimal status here means
			// iteration trouble, not infeasibility of the MIP. Keep the
			// previous relaxation.
			return res, added, nil
		}
		s.lpIters += next.Iterations
		s.cLPIters.Add(int64(next.Iterations))
		s.refacts += next.Refactorizations
		s.degen += next.DegeneratePivots
		if next.Objective <= res.Objective+1e-9 && math.Abs(next.Objective-res.Objective) < 1e-9 {
			res = next
			break // no bound movement: stop cutting
		}
		res = next
	}
	return res, added, nil
}
