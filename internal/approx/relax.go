// Package approx implements the approximation algorithms of Section 3 of
// Das et al. (SPAA 2019) for the discrete resource-time tradeoff problem
// with resource reuse over paths:
//
//   - BiCriteria: the (1/alpha, 1/(1-alpha)) bi-criteria algorithm for
//     general non-increasing duration functions (Theorem 3.4);
//   - KWay5: the single-criteria 5-approximation for k-way splitting
//     (Theorem 3.9);
//   - Binary4: the single-criteria 4-approximation for recursive binary
//     splitting (Theorem 3.10);
//   - BinaryBiCriteria: the improved (4/3, 14/5) bi-criteria algorithm for
//     recursive binary splitting (Theorem 3.16).
//
// All algorithms share the same pipeline: expand the instance to the
// two-tuple form D” (core.Expand, Figure 6), solve the flow-based linear
// relaxation LP 6-10, round the fractional solution, and re-route resources
// with an integral minimum flow (LP 11-13, solved combinatorially).
//
// The relaxation is built over the expansion's chains rather than its
// arcs: one flow variable per chain, event times only at the original
// nodes, each measured down from its zero-flow longest-path time.  It has
// the optimum of LP 6-10 over D”, and its all-slack starting basis is
// feasible, so the simplex's first phase has only the conservation rows
// to settle (see solveRelaxation).
package approx

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/duration"
	"repro/internal/lp"
)

// Relaxation is the solved LP 6-10 (or its minimum-resource variant) over
// an expanded instance.
type Relaxation struct {
	Ex *core.Expanded
	// F is the fractional flow per expanded arc.  A chain's job arc and
	// free arc carry the same flow, the chain's one LP variable.
	F []float64
	// Value is the fractional flow out of the source.
	Value float64
	// Objective is the LP optimum: a lower bound on the optimal makespan
	// (makespan mode) or on the optimal resource usage (resource mode).
	Objective float64
}

// edgeTwoTuple reports the two-tuple shape of an expanded arc: ok is false
// for single-tuple (constant) arcs, otherwise t0 > 0 is the zero-resource
// duration and r > 0 zeroes it.
func edgeTwoTuple(fn duration.Func) (t0, r int64, ok bool) {
	ts := fn.Tuples()
	if len(ts) == 1 {
		return ts[0].T, 0, false
	}
	if len(ts) != 2 || ts[1].T != 0 {
		panic(fmt.Sprintf("approx: arc is not in two-tuple form: %v", ts))
	}
	return ts[0].T, ts[1].R, true
}

// SolveMakespanLP solves the makespan relaxation over the compiled
// instance's memoized two-tuple expansion: minimize the sink event time
// subject to linear durations, flow conservation and a resource budget.
// The simplex iteration polls ctx.
func SolveMakespanLP(ctx context.Context, c *core.Compiled, budget int64) (*Relaxation, error) {
	return solveRelaxation(ctx, c, float64(budget), -1)
}

// SolveResourceLP solves the resource relaxation: minimize the flow out of
// the source subject to the sink event time being at most target.
func SolveResourceLP(ctx context.Context, c *core.Compiled, target int64) (*Relaxation, error) {
	return solveRelaxation(ctx, c, -1, float64(target))
}

// solveRelaxation builds LP 6-10 over the expansion in a form whose slack
// basis is feasible, so the simplex's first phase sees only conservation
// rows (and the target row in resource mode):
//
//   - One flow variable per chain and per copied constant arc, running
//     between the original arc's endpoints.  A chain's midpoint has one arc
//     in and one out, so its job and free arcs carry the same flow, and its
//     event time projects out exactly: T_u + t(1 - f/delta) <= T_mid <= T_v
//     holds for some T_mid iff T_u + t(1 - f/delta) <= T_v.
//   - Event times measured down from L, the zero-flow longest path on the
//     original instance: sigma_v = L_v - T_v.  A duration-t chain's row
//     becomes sigma_v - sigma_u - (t/delta) f <= L_v - L_u - t, whose
//     right-hand side is non-negative, so f = 0, sigma = 0 is feasible.
//     sigma_source is 0 and has no variable.  The variables' sign bound
//     adds T <= L, which loses no optimum: replacing T by min(T, L) keeps
//     every row satisfied.
//
// Makespan mode minimizes -sigma_sink and reports L_sink - sigma_sink.
func solveRelaxation(ctx context.Context, c *core.Compiled, budget, target float64) (*Relaxation, error) {
	ex, err := c.Expansion()
	if err != nil {
		return nil, err
	}
	inst := c.Inst
	n, m := inst.G.NumNodes(), inst.G.NumEdges()
	d0 := make([]int64, m)
	for e, ts := range c.Tuples {
		d0[e] = ts[0].T
	}
	L := make([]int64, n)
	c.LongestPath(d0, L)

	// Variables: the flows of original arc e are [arcVar[e], arcVar[e+1]),
	// one per chain (or one for a copied arc); then one sigma per node but
	// the source.
	arcVar := make([]int, m+1)
	for e := 0; e < m; e++ {
		arcVar[e+1] = arcVar[e] + max(1, len(ex.Chains[e]))
	}
	nFlow := arcVar[m]
	sVar := func(v int) int {
		switch {
		case v == inst.Source:
			return -1
		case v > inst.Source:
			return nFlow + v - 1
		default:
			return nFlow + v
		}
	}
	p := lp.New(nFlow + n - 1)

	var terms []lp.Term
	// precedence adds sigma_v - sigma_u - slope*f <= rhs; f < 0 adds no
	// flow term.
	precedence := func(u, v, f int, slope, rhs float64) {
		terms = terms[:0]
		if j := sVar(v); j >= 0 {
			terms = append(terms, lp.Term{Var: j, Coef: 1})
		}
		if j := sVar(u); j >= 0 {
			terms = append(terms, lp.Term{Var: j, Coef: -1})
		}
		if f >= 0 {
			terms = append(terms, lp.Term{Var: f, Coef: -slope})
		}
		p.AddConstraint(lp.LE, terms, rhs)
	}
	for e := 0; e < m; e++ {
		u, v := int(c.ArcFrom[e]), int(c.ArcTo[e])
		slack := float64(L[v] - L[u])
		if ex.CopiedArc[e] >= 0 {
			precedence(u, v, -1, 0, slack-float64(d0[e]))
			continue
		}
		for i, link := range ex.Chains[e] {
			f := arcVar[e] + i
			if link.Delta == 0 {
				precedence(u, v, -1, 0, slack-float64(link.Time))
				continue
			}
			// Flow beyond delta buys nothing in the relaxation (Equation 6).
			p.AddConstraint(lp.LE, []lp.Term{{Var: f, Coef: 1}}, float64(link.Delta))
			// T_u + t (1 - f/delta) <= T_v  (Equations 4 and 7).
			precedence(u, v, f, float64(link.Time)/float64(link.Delta), slack-float64(link.Time))
		}
	}
	// flowTerms appends coef times every flow variable of the arcs in arcs.
	flowTerms := func(terms []lp.Term, arcs []int32, coef float64) []lp.Term {
		for _, e := range arcs {
			for j := arcVar[e]; j < arcVar[e+1]; j++ {
				terms = append(terms, lp.Term{Var: j, Coef: coef})
			}
		}
		return terms
	}
	// Flow conservation at internal nodes (Equation 8).
	for v := 0; v < n; v++ {
		if v == inst.Source || v == inst.Sink {
			continue
		}
		terms = flowTerms(terms[:0], c.OutArcs[c.OutStart[v]:c.OutStart[v+1]], 1)
		terms = flowTerms(terms, c.InArcs[c.InStart[v]:c.InStart[v+1]], -1)
		p.AddConstraint(lp.EQ, terms, 0)
	}
	// The source has no arc in, so its outflow is the flow value.
	srcTerms := flowTerms(nil, c.OutArcs[c.OutStart[inst.Source]:c.OutStart[inst.Source+1]], 1)

	sink, lSink := sVar(inst.Sink), float64(L[inst.Sink])
	switch {
	case budget >= 0:
		// Minimum-makespan mode (Equations 9 and 10).
		p.AddConstraint(lp.LE, srcTerms, budget)
		if sink >= 0 {
			p.SetObjective(sink, -1)
		}
	case target >= 0:
		// Minimum-resource mode: L_sink - sigma_sink <= target.
		if sink >= 0 {
			p.AddConstraint(lp.LE, []lp.Term{{Var: sink, Coef: -1}}, target-lSink)
		}
		for _, t := range srcTerms {
			p.SetObjective(t.Var, t.Coef)
		}
	default:
		return nil, fmt.Errorf("approx: neither budget nor target given")
	}

	sol, err := p.Solve(ctx)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("approx: relaxation is %v", sol.Status)
	}
	rel := &Relaxation{Ex: ex, F: make([]float64, ex.G.NumEdges()), Objective: sol.Objective}
	if budget >= 0 {
		rel.Objective += lSink
	}
	for e := 0; e < m; e++ {
		if id := ex.CopiedArc[e]; id >= 0 {
			rel.F[id] = sol.X[arcVar[e]]
			continue
		}
		for i, link := range ex.Chains[e] {
			x := sol.X[arcVar[e]+i]
			rel.F[link.JobArc], rel.F[link.FreeArc] = x, x
		}
	}
	for _, t := range srcTerms {
		rel.Value += sol.X[t.Var]
	}
	return rel, nil
}

// Round applies the alpha threshold rounding of Section 3.1 to the
// fractional solution: a two-tuple arc whose LP duration lies in
// [0, alpha*t0) is rounded down to duration 0 (requiring its full resource
// r), everything else is rounded up to t0 (requiring none).  The returned
// slice is the per-arc integral resource requirement f'.
func (rel *Relaxation) Round(alpha float64) []int64 {
	lower := make([]int64, len(rel.F))
	for e := range rel.F {
		t0, r, two := edgeTwoTuple(rel.Ex.Fns[e])
		if !two || t0 == 0 {
			continue
		}
		lpDur := float64(t0) * (1 - rel.F[e]/float64(r))
		if lpDur < alpha*float64(t0)-1e-9 {
			lower[e] = r
		}
	}
	return lower
}

// JobFractional sums the fractional LP flow over the chains of each
// original arc (the r-hat of Section 3.3).
func (rel *Relaxation) JobFractional(orig *core.Instance) []float64 {
	out := make([]float64, orig.G.NumEdges())
	for e := 0; e < orig.G.NumEdges(); e++ {
		if id := rel.Ex.CopiedArc[e]; id >= 0 {
			continue // constant arcs use no resource
		}
		for _, link := range rel.Ex.Chains[e] {
			out[e] += rel.F[link.JobArc]
		}
	}
	return out
}

// JobRounded sums an integral per-expanded-arc requirement over the chains
// of each original arc (the r_j of Section 3.2).
func (rel *Relaxation) JobRounded(orig *core.Instance, lower []int64) []int64 {
	out := make([]int64, orig.G.NumEdges())
	for e := 0; e < orig.G.NumEdges(); e++ {
		if rel.Ex.CopiedArc[e] >= 0 {
			continue
		}
		for _, link := range rel.Ex.Chains[e] {
			out[e] += lower[link.JobArc]
		}
	}
	return out
}

// clampToBreakpoint lowers r to the largest breakpoint of fn that is <= r;
// requirements between breakpoints cost budget without reducing duration.
func clampToBreakpoint(fn duration.Func, r int64) int64 {
	var best int64
	for _, tp := range fn.Tuples() {
		if tp.R <= r {
			best = tp.R
		}
	}
	return best
}

// prevPow2 returns the largest power of two <= x, or 0 for x < 1.
func prevPow2(x int64) int64 {
	if x < 1 {
		return 0
	}
	return int64(1) << (bits.Len64(uint64(x)) - 1)
}
