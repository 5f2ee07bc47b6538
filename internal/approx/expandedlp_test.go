package approx

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/duration"
	"repro/internal/lp"
)

// twoTuple reads an arc of D” as its zero-resource duration t0 and the
// resource r that zeroes it; r is 0 on a constant arc.
func twoTuple(fn duration.Func) (t0, r int64) {
	ts := fn.Tuples()
	return ts[0].T, ts[len(ts)-1].R
}

// expandedGraphLP builds and solves the relaxation over the expanded graph
// itself: one flow variable per expanded arc, one event time per expanded
// node (chain midpoints included), a conservation row at every internal
// node and event times measured up from the source.  It is the reference
// formulation the differential oracle compares SolveMakespanLP and
// SolveResourceLP against, and it returns the LP optimum; budget >= 0
// selects makespan mode, otherwise target >= 0 selects resource mode.
func expandedGraphLP(ctx context.Context, ex *core.Expanded, budget, target float64) (float64, error) {
	g := ex.G
	m, n := g.NumEdges(), g.NumNodes()
	// Variables: [0, m) flows, [m, m+n) event times.
	fVar := func(e int) int { return e }
	tVar := func(v int) int { return m + v }
	p := lp.New(m + n)

	for e := 0; e < m; e++ {
		ed := g.Edge(e)
		if t0, r := twoTuple(ex.Fns[e]); r > 0 {
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
		return 0, fmt.Errorf("approx: neither budget nor target given")
	}

	sol, err := p.Solve(ctx)
	if err != nil {
		return 0, err
	}
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("approx: relaxation is %v", sol.Status)
	}
	return sol.Objective, nil
}
