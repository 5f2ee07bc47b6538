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
	// F is the fractional flow per expanded arc.
	F []float64
	// Value is the fractional flow out of the source.
	Value float64
	// Objective is the LP optimum: a lower bound on the optimal makespan
	// (makespan mode) or on the optimal resource usage (resource mode).
	Objective float64
	// EventTime is the LP's event time per expanded node.
	EventTime []float64
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

func solveRelaxation(ctx context.Context, c *core.Compiled, budget, target float64) (*Relaxation, error) {
	ex, err := c.Expansion()
	if err != nil {
		return nil, err
	}
	g := ex.G
	m, n := g.NumEdges(), g.NumNodes()
	// Variables: [0, m) flows, [m, m+n) event times.
	fVar := func(e int) int { return e }
	tVar := func(v int) int { return m + v }
	p := lp.New(m + n)

	for e := 0; e < m; e++ {
		ed := g.Edge(e)
		t0, r, two := edgeTwoTuple(ex.Fns[e])
		if two {
			// Flow beyond r buys nothing in the relaxation (Equation 6).
			p.AddConstraint(lp.LE, []lp.Term{{Var: fVar(e), Coef: 1}}, float64(r))
			// T_u + t0 (1 - f/r) <= T_v  (Equations 4 and 7).
			p.AddConstraint(lp.LE, []lp.Term{
				{Var: tVar(ed.From), Coef: 1},
				{Var: tVar(ed.To), Coef: -1},
				{Var: fVar(e), Coef: -float64(t0) / float64(r)},
			}, -float64(t0))
		} else {
			p.AddConstraint(lp.LE, []lp.Term{
				{Var: tVar(ed.From), Coef: 1},
				{Var: tVar(ed.To), Coef: -1},
			}, -float64(t0))
		}
	}
	// Flow conservation at internal nodes (Equation 8).
	for v := 0; v < n; v++ {
		if v == ex.Source || v == ex.Sink {
			continue
		}
		var terms []lp.Term
		for _, e := range g.Out(v) {
			terms = append(terms, lp.Term{Var: fVar(e), Coef: 1})
		}
		for _, e := range g.In(v) {
			terms = append(terms, lp.Term{Var: fVar(e), Coef: -1})
		}
		if terms != nil {
			p.AddConstraint(lp.EQ, terms, 0)
		}
	}
	// Source event time is zero.
	p.AddConstraint(lp.EQ, []lp.Term{{Var: tVar(ex.Source), Coef: 1}}, 0)

	var srcTerms []lp.Term
	for _, e := range g.Out(ex.Source) {
		srcTerms = append(srcTerms, lp.Term{Var: fVar(e), Coef: 1})
	}
	for _, e := range g.In(ex.Source) {
		srcTerms = append(srcTerms, lp.Term{Var: fVar(e), Coef: -1})
	}

	switch {
	case budget >= 0:
		// Minimum-makespan mode (Equations 9 and 10).
		p.AddConstraint(lp.LE, srcTerms, budget)
		p.SetObjective(tVar(ex.Sink), 1)
	case target >= 0:
		// Minimum-resource mode.
		p.AddConstraint(lp.LE, []lp.Term{{Var: tVar(ex.Sink), Coef: 1}}, target)
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
	rel := &Relaxation{
		Ex:        ex,
		F:         sol.X[:m],
		Objective: sol.Objective,
		EventTime: sol.X[m : m+n],
	}
	for _, t := range srcTerms {
		rel.Value += t.Coef * sol.X[t.Var]
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
