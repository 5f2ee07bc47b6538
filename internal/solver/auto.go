package solver

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/duration"
	"repro/internal/sp"
)

// Auto-dispatch thresholds.
const (
	// autoSPCost caps nodes*(B+1)^2, the series-parallel DP work over the
	// decomposition tree's nodes, before auto prefers an approximation
	// over the exact DP.
	autoSPCost = int64(1) << 26
	// autoSPMaxBudget is sqrt(autoSPCost): any larger budget exceeds
	// autoSPCost on its own, and squaring it first could overflow int64.
	autoSPMaxBudget = int64(1) << 13
	// autoExactSpace caps the tuple-assignment search space before auto
	// considers an instance small enough for branch-and-bound.
	autoExactSpace = int64(1) << 20
	// autoExactNodes is the node budget auto gives the exact search, so a
	// misjudged instance degrades to a truncated (but reported) search
	// instead of hanging.
	autoExactNodes = 1 << 18
	// autoRaceSpace is the assignment-space ceiling for racing: past the
	// exact threshold but below this, the exact search often still
	// finishes quickly (pruning collapses most trees), so with spare
	// parallelism auto races it against the bi-criteria rounding instead
	// of writing it off.
	autoRaceSpace = int64(1) << 26
	// autoRaceNodes caps the exact racer; the rounding rival is the
	// safety net, so the cap only bounds wasted work.
	autoRaceNodes = 1 << 20
	// autoDenseLPArcs caps the EXPANDED arc count (sum of per-arc chain
	// arcs) fed to the full-tableau simplex solvers (bicriteria*, kway5,
	// binary4, binarybi).  Their LP has one flow variable per chain (two
	// expanded arcs) or copied arc and one event time per original node,
	// and their pivots skip zero entries, but the tableau is still stored
	// whole, so memory is quadratic in that size.  Past it, auto routes to the
	// frankwolfe scale tier, which is linear per iteration.  Moving the cap
	// reroutes instances and changes answers.
	autoDenseLPArcs = 768
)

// raceRoute is the sentinel route name for the exact-vs-rounding race.
const raceRoute = "race"

// autoSolver is the portfolio solver: it inspects the instance and routes
// to the registered solver whose guarantee applies, recording the
// decision in Report.Routing.
type autoSolver struct{}

func newAutoSolver() Solver { return autoSolver{} }

func (autoSolver) Name() string { return "auto" }

func (autoSolver) Capabilities() Caps {
	return Caps{Budget: true, Target: true, Parallel: true,
		Guarantee: "inherited from the routed solver"}
}

// route picks the solver name for the instance and explains why.  All
// instance facts it dispatches on - series-parallel recognition, the
// duration class, the expansion size and the assignment space - come off
// the compiled form, where they are derived (and memoized) once instead of
// recomputed per routing decision.  The rules, in order: a series-parallel
// DAG with affordable DP cost goes to the exact spdp (recognition runs on
// every instance, with no arc cap: it is one near-linear reduction over
// flat per-vertex state, memoized on the compiled form); a recognized
// k-way or recursive-binary duration class goes to the matching
// approximation (budget mode only - those solvers have no min-resource
// variant) when its dense LP is affordable; a small assignment space goes
// to exact branch-and-bound under a node budget; an assignment space near
// that threshold, when the caller explicitly asked for two or more
// workers, races exact against a rounding rival (route name "race", the
// rival returned as rival, which is empty on every other route);
// everything else takes an LP-rounding approximation, size-routed: the
// dense bi-criteria LP while the expansion stays small, the frankwolfe
// scale tier beyond it.
func (autoSolver) route(c *core.Compiled, o Options) (name, reason string, opts Options, rival string) {
	obj := o.Objective()
	m := c.Inst.G.NumEdges()
	if tree, _, ok := sp.Recognize(c); ok {
		b := o.Budget
		if obj == MinResource {
			b = c.MaxUsefulBudget
		}
		if bp := b + 1; bp <= autoSPMaxBudget {
			if cost := int64(tree.Nodes()) * bp * bp; cost <= autoSPCost {
				return "spdp", fmt.Sprintf("series-parallel DAG (%d jobs, DP cost %d)", tree.Leaves(), cost), o, ""
			}
		}
	}
	denseOK := c.ExpandedArcs <= autoDenseLPArcs
	if obj == MinMakespan && denseOK {
		switch c.Class() {
		case duration.KindKWay:
			return "kway5", "all jobs k-way splitting (Eq 2)", o, ""
		case duration.KindBinary:
			return "binary4", "all jobs recursive binary splitting (Eq 3)", o, ""
		}
	}
	space := c.AssignmentSpace
	if space <= autoExactSpace {
		if o.MaxNodes == 0 {
			o.MaxNodes = autoExactNodes
		}
		return "exact", fmt.Sprintf("small instance (assignment space %d)", space), o, ""
	}
	// The rounding fallback (and racing rival) is size-routed: the dense
	// simplex while the expansion stays affordable, the scale tier beyond.
	rounder := "frankwolfe"
	if denseOK {
		if obj == MinResource {
			rounder = "bicriteria-resource"
		} else {
			rounder = "bicriteria"
		}
	}
	// Racing is opt-in: it requires an explicit WithParallelism(>=2), not
	// the GOMAXPROCS default, so that plain auto solves route (and hence
	// reproduce) identically on every machine.
	if space <= autoRaceSpace && o.Parallelism >= 2 {
		if o.MaxNodes == 0 {
			o.MaxNodes = autoRaceNodes
		}
		return raceRoute, fmt.Sprintf("assignment space %d near the exact threshold", space), o, rounder
	}
	if rounder == "frankwolfe" {
		return rounder, fmt.Sprintf("large general DAG (%d arcs, expansion > %d): envelope relaxation + rounding", m, autoDenseLPArcs), o, ""
	}
	return rounder, "general step functions, large instance", o, ""
}

func (a autoSolver) Solve(ctx context.Context, c *core.Compiled, o Options) (*Report, error) {
	name, reason, routed, rival := a.route(c, o)
	if name == raceRoute {
		rep, winner, err := raceSolve(ctx, c, routed, "exact", rival)
		if rep != nil {
			rep.Routing = fmt.Sprintf("auto -> race(exact vs %s): %s; winner %s", rival, reason, winner)
		}
		return rep, err
	}
	s, err := Get(name)
	if err != nil {
		return nil, err
	}
	rep, err := s.Solve(ctx, c, routed)
	if rep != nil {
		rep.Routing = fmt.Sprintf("auto -> %s: %s", name, reason)
	}
	return rep, err
}
