package exact

import (
	"repro/internal/core"
	"repro/internal/flow"
)

// BruteForceMinMakespan minimizes the makespan over all integral flows of
// value exactly budget by enumerating multisets of source-to-sink paths
// (every integral flow decomposes into unit path flows, and makespan is
// non-increasing in budget, so value-exactly-budget enumeration is
// complete).  It reports ok=false when the instance has more than maxPaths
// source-sink paths, in which case nothing is computed.
//
// This is the reference oracle used to validate the branch-and-bound
// searcher on tiny instances; it is exponential and should never be called
// on anything larger.
func BruteForceMinMakespan(inst *core.Instance, budget int64, maxPaths int) (core.Solution, bool) {
	paths, exhaustive := inst.G.Paths(inst.Source, inst.Sink, maxPaths+1)
	if !exhaustive || len(paths) > maxPaths {
		return core.Solution{}, false
	}
	c := core.Compile(inst)
	f := make([]int64, inst.G.NumEdges())
	best := core.Solution{Makespan: -1}
	var rec func(k int64, from int)
	rec = func(k int64, from int) {
		if k == 0 {
			m, err := c.Makespan(f)
			if err != nil {
				panic(err)
			}
			if best.Makespan < 0 || m < best.Makespan {
				best = core.Solution{
					Flow:     append([]int64(nil), f...),
					Value:    inst.FlowValue(f),
					Makespan: m,
				}
			}
			return
		}
		for i := from; i < len(paths); i++ {
			for _, e := range paths[i] {
				f[e]++
			}
			rec(k-1, i)
			for _, e := range paths[i] {
				f[e]--
			}
		}
	}
	rec(budget, 0)
	return best, true
}

// BruteForceAssignmentsMinMakespan enumerates every tuple assignment (the
// exact search's own space), computes each assignment's minimum flow, and
// returns the best realized makespan among those within budget.  Every
// integral flow induces the assignment of the breakpoints it reaches and
// is dominated by that assignment's min-flow, so this enumeration is a
// complete optimum oracle - independent of the branch-and-bound's
// branching and pruning rules, which is exactly what makes it the right
// cross-check for them.  It reports ok=false when the assignment space
// exceeds maxAssignments.
func BruteForceAssignmentsMinMakespan(inst *core.Instance, budget int64, maxAssignments int64) (core.Solution, bool) {
	m := inst.G.NumEdges()
	space := int64(1)
	for _, fn := range inst.Fns {
		space *= int64(len(fn.Tuples()))
		if space > maxAssignments {
			return core.Solution{}, false
		}
	}
	c := core.Compile(inst)
	level := make([]int, m)
	lower := make([]int64, m)
	ms := flow.NewMinFlowSolver(inst.G, inst.Source, inst.Sink)
	best := core.Solution{Makespan: -1}
	for {
		for e, l := range level {
			lower[e] = inst.Fns[e].Tuples()[l].R
		}
		res, err := ms.Solve(lower)
		if err == nil && res.Value <= budget {
			mk, err := c.Makespan(res.EdgeFlow)
			if err != nil {
				panic(err)
			}
			if best.Makespan < 0 || mk < best.Makespan {
				best = core.Solution{
					Flow:     append([]int64(nil), res.EdgeFlow...),
					Value:    res.Value,
					Makespan: mk,
				}
			}
		}
		// Advance the mixed-radix odometer over levels.
		e := 0
		for ; e < m; e++ {
			level[e]++
			if level[e] < len(inst.Fns[e].Tuples()) {
				break
			}
			level[e] = 0
		}
		if e == m {
			return best, true
		}
	}
}

// BruteForceMinResource finds the smallest budget whose brute-force optimal
// makespan meets the target, scanning budgets upward to maxBudget.
func BruteForceMinResource(inst *core.Instance, target, maxBudget int64, maxPaths int) (core.Solution, bool) {
	for b := int64(0); b <= maxBudget; b++ {
		sol, ok := BruteForceMinMakespan(inst, b, maxPaths)
		if !ok {
			return core.Solution{}, false
		}
		if sol.Makespan <= target {
			return sol, true
		}
	}
	return core.Solution{Makespan: -1}, true
}
