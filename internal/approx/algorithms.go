package approx

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/flow"
)

// Result is the outcome of an approximation algorithm on the original
// instance.
type Result struct {
	// Sol is the integral solution (flow, value, makespan) on the
	// original instance.
	Sol core.Solution
	// LPObjective is the optimum of the relaxation: a lower bound on the
	// optimal makespan (makespan algorithms) or optimal resource usage
	// (resource algorithms).  Dividing Sol's metric by it bounds the true
	// approximation ratio from above.
	LPObjective float64
	// LPValue is the fractional resource usage of the relaxation.
	LPValue float64
}

// minFlowOnOriginal routes an integral min-flow meeting per-arc
// requirements on the instance.
func minFlowOnOriginal(c *core.Compiled, lower []int64) (core.Solution, error) {
	inst := c.Inst
	res, err := flow.MinFlow(inst.G, lower, inst.Source, inst.Sink)
	if err != nil {
		return core.Solution{}, err
	}
	return c.NewSolution(res.EdgeFlow)
}

// BiCriteria is the Theorem 3.4 algorithm for general non-increasing
// duration functions: with parameter alpha in (0,1) it returns a solution
// using at most LPValue/(1-alpha) resources (<= B/(1-alpha)) with makespan
// at most LPObjective/alpha (<= OPT(B)/alpha).  The LP relaxation polls
// ctx.
//
// Theorem 3.4 rounds and routes on D”; this routes each arc's summed
// chain requirement on the instance instead.  The two minimum flows have
// the same value, since an arc's chains are parallel.  An arc whose
// zeroed chains include its first k-1 carries at least its k-th
// breakpoint's resource, so its duration is at most the one its chains
// realize on D”, and the makespan bound carries over.
func BiCriteria(ctx context.Context, c *core.Compiled, budget int64, alpha float64) (*Result, error) {
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("approx: alpha %v outside (0,1)", alpha)
	}
	if budget < 0 {
		return nil, fmt.Errorf("approx: negative budget %d", budget)
	}
	rel, err := SolveMakespanLP(ctx, c, budget)
	if err != nil {
		return nil, err
	}
	sol, err := minFlowOnOriginal(c, rel.Round(alpha))
	if err != nil {
		return nil, err
	}
	return &Result{Sol: sol, LPObjective: rel.Objective, LPValue: rel.Value}, nil
}

// BiCriteriaResource is the minimum-resource twin of BiCriteria: given a
// makespan target T it returns a solution using at most
// LPObjective/(1-alpha) resources whose makespan is at most T/alpha.
func BiCriteriaResource(ctx context.Context, c *core.Compiled, target int64, alpha float64) (*Result, error) {
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("approx: alpha %v outside (0,1)", alpha)
	}
	rel, err := SolveResourceLP(ctx, c, target)
	if err != nil {
		return nil, err
	}
	sol, err := minFlowOnOriginal(c, rel.Round(alpha))
	if err != nil {
		return nil, err
	}
	return &Result{Sol: sol, LPObjective: rel.Objective, LPValue: rel.Value}, nil
}

// KWay5 is the Theorem 3.9 single-criteria 5-approximation for instances
// whose jobs use the k-way splitting duration function: the returned
// solution respects the budget (its min-flow value is at most the LP flow
// value, which is at most B) and its makespan is at most 5 OPT.
//
// Following Section 3.2, it runs the (2,2) bi-criteria rounding
// (alpha = 1/2), then halves each job's rounded resource r_j; for the
// boundary cases r_j <= 3 the paper argues via the optimum r*_j, which the
// algorithm cannot see, so the LP fractional usage r-hat_j stands in for it
// (r-hat is what the paper's own two-phase predecessors use).
func KWay5(ctx context.Context, c *core.Compiled, budget int64) (*Result, error) {
	return halvedRounding(ctx, c, budget, func(e int, rj int64, rhat float64) int64 {
		switch {
		case rj > 3:
			return rj / 2
		case rhat >= 2:
			return 2
		default:
			return 0
		}
	})
}

// Binary4 is the Theorem 3.10 single-criteria 4-approximation for
// recursive binary splitting: after the (2,2) bi-criteria rounding each
// job's resource is halved (r_j/2 <= r*_j), which by the doubling property
// t(r/2) <= 2 t(r) of Equation 3 costs at most another factor 2 in
// makespan.
func Binary4(ctx context.Context, c *core.Compiled, budget int64) (*Result, error) {
	return halvedRounding(ctx, c, budget, func(e int, rj int64, rhat float64) int64 {
		return prevPow2(rj / 2)
	})
}

// halvedRounding implements the shared Section 3.2 pipeline: LP, alpha=1/2
// rounding, per-job resource reduction via reduce, then an integral
// min-flow on the original instance with the reduced requirements.
func halvedRounding(ctx context.Context, c *core.Compiled, budget int64, reduce func(e int, rj int64, rhat float64) int64) (*Result, error) {
	if budget < 0 {
		return nil, fmt.Errorf("approx: negative budget %d", budget)
	}
	inst := c.Inst
	rel, err := SolveMakespanLP(ctx, c, budget)
	if err != nil {
		return nil, err
	}
	rj := rel.Round(0.5)
	rhat := rel.JobFractional()
	req := make([]int64, inst.G.NumEdges())
	for e := range req {
		req[e] = clampToBreakpoint(inst.Fns[e], reduce(e, rj[e], rhat[e]))
	}
	sol, err := minFlowOnOriginal(c, req)
	if err != nil {
		return nil, err
	}
	return &Result{Sol: sol, LPObjective: rel.Objective, LPValue: rel.Value}, nil
}

// BinaryBiCriteria is the Theorem 3.16 improved (4/3, 14/5) bi-criteria
// algorithm for recursive binary splitting.  Each job's fractional LP usage
// r-hat is rounded to the nearest power of two in log-space (down within
// [2^i, 1.5*2^i), up within [1.5*2^i, 2^(i+1))), below 1 to zero; the
// rounded requirements are then min-flow routed.  Resources grow by at most
// 4/3, makespan by at most 14/5.
func BinaryBiCriteria(ctx context.Context, c *core.Compiled, budget int64) (*Result, error) {
	if budget < 0 {
		return nil, fmt.Errorf("approx: negative budget %d", budget)
	}
	inst := c.Inst
	rel, err := SolveMakespanLP(ctx, c, budget)
	if err != nil {
		return nil, err
	}
	rhat := rel.JobFractional()
	req := make([]int64, inst.G.NumEdges())
	for e := range req {
		req[e] = clampToBreakpoint(inst.Fns[e], roundLog(rhat[e]))
	}
	sol, err := minFlowOnOriginal(c, req)
	if err != nil {
		return nil, err
	}
	return &Result{Sol: sol, LPObjective: rel.Objective, LPValue: rel.Value}, nil
}

// roundLog applies the Section 3.3 rounding rule to a fractional resource.
func roundLog(r float64) int64 {
	if r < 1 {
		return 0
	}
	p := prevPow2(int64(r))
	if r < 1.5*float64(p) {
		return p
	}
	return 2 * p
}
