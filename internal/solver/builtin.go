package solver

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/duration"
	"repro/internal/exact"
	"repro/internal/sp"
)

// ErrNotSeriesParallel is returned by the spdp solver when the instance's
// DAG is not two-terminal series-parallel.
var ErrNotSeriesParallel = errors.New("solver: instance is not two-terminal series-parallel")

// funcSolver adapts a solve function plus static metadata to the Solver
// interface; all built-ins are funcSolvers.
type funcSolver struct {
	name  string
	caps  Caps
	solve func(ctx context.Context, c *core.Compiled, o Options) (*Report, error)
}

func (f *funcSolver) Name() string       { return f.name }
func (f *funcSolver) Capabilities() Caps { return f.caps }
func (f *funcSolver) Solve(ctx context.Context, c *core.Compiled, o Options) (*Report, error) {
	rep, err := f.solve(ctx, c, o)
	if rep != nil {
		rep.Solver = f.name
		rep.Objective = o.Objective()
		if rep.Guarantee == "" {
			rep.Guarantee = f.caps.Guarantee
		}
		if f.caps.Approximate {
			rep.ApproxRatioUpperBound = ratioUpperBound(rep)
		}
	}
	return rep, err
}

// ratioUpperBound divides the solution's objective metric by the
// relaxation-certified lower bound: since LPLowerBound <= OPT, the result
// bounds the true approximation ratio from above.  A zero or absent bound
// claims nothing (ratio 0) unless the metric itself is zero, which is
// trivially optimal.
func ratioUpperBound(rep *Report) float64 {
	metric := rep.Sol.Makespan
	if rep.Objective == MinResource {
		metric = rep.Sol.Value
	}
	if metric == 0 {
		return 1
	}
	if rep.LPLowerBound <= 0 {
		return 0
	}
	return float64(metric) / rep.LPLowerBound
}

func init() {
	Register(&funcSolver{
		name: "exact",
		caps: Caps{Budget: true, Target: true, Exact: true, Parallel: true,
			Guarantee: "optimal when the search completes"},
		solve: solveExact,
	})
	Register(&funcSolver{
		name: "bicriteria",
		caps: Caps{Budget: true, Approximate: true,
			Guarantee: "makespan <= OPT/alpha using <= B/(1-alpha) resources (Thm 3.4)"},
		solve: func(ctx context.Context, c *core.Compiled, o Options) (*Report, error) {
			return fromApprox(approx.BiCriteria(ctx, c, o.Budget, o.Alpha))
		},
	})
	Register(&funcSolver{
		name: "bicriteria-resource",
		caps: Caps{Target: true, Approximate: true,
			Guarantee: "resources <= OPT/(1-alpha) reaching makespan <= T/alpha (Thm 3.4)"},
		solve: func(ctx context.Context, c *core.Compiled, o Options) (*Report, error) {
			return fromApprox(approx.BiCriteriaResource(ctx, c, o.Target, o.Alpha))
		},
	})
	Register(&funcSolver{
		name: "kway5",
		caps: Caps{Budget: true, Approximate: true, Classes: []string{duration.KindKWay},
			Guarantee: "makespan <= 5 OPT within budget (Thm 3.9)"},
		solve: func(ctx context.Context, c *core.Compiled, o Options) (*Report, error) {
			return fromApprox(approx.KWay5(ctx, c, o.Budget))
		},
	})
	Register(&funcSolver{
		name: "binary4",
		caps: Caps{Budget: true, Approximate: true, Classes: []string{duration.KindBinary},
			Guarantee: "makespan <= 4 OPT within budget (Thm 3.10)"},
		solve: func(ctx context.Context, c *core.Compiled, o Options) (*Report, error) {
			return fromApprox(approx.Binary4(ctx, c, o.Budget))
		},
	})
	Register(&funcSolver{
		name: "binarybi",
		caps: Caps{Budget: true, Approximate: true, Classes: []string{duration.KindBinary},
			Guarantee: "makespan <= 14/5 OPT using <= 4B/3 resources (Thm 3.16)"},
		solve: func(ctx context.Context, c *core.Compiled, o Options) (*Report, error) {
			return fromApprox(approx.BinaryBiCriteria(ctx, c, o.Budget))
		},
	})
	Register(&funcSolver{
		name: "spdp",
		caps: Caps{Budget: true, Target: true, Exact: true, SeriesParallelOnly: true,
			Guarantee: "optimal on series-parallel DAGs (Sec 3.4 DP)"},
		solve: solveSPDP,
	})
	Register(&funcSolver{
		name: "frankwolfe",
		caps: Caps{Budget: true, Target: true, Approximate: true,
			Guarantee: "makespan <= relax/alpha using <= B/(1-alpha) resources; certified relaxation bound (scale tier)"},
		solve: solveFrankWolfe,
	})
	Register(newAutoSolver())
}

// fromApprox converts an approximation Result into a Report.
func fromApprox(res *approx.Result, err error) (*Report, error) {
	if err != nil {
		return nil, err
	}
	return &Report{Sol: res.Sol, LowerBound: res.LPObjective, LPLowerBound: res.LPObjective, Complete: true}, nil
}

// solveExact runs the branch-and-bound search in either mode.  On context
// cancellation with a solution already in hand, the partial Report is
// returned together with the context error; a node cap hit before any
// solution returns a Report carrying only the objective's lower bound,
// together with exact.ErrTruncated.
func solveExact(ctx context.Context, c *core.Compiled, o Options) (*Report, error) {
	eopts := &exact.Options{MaxNodes: o.MaxNodes, Parallelism: o.Parallelism, Incumbent: o.Incumbent}
	if o.Progress != nil {
		// Adapt the search's (incumbent, floor, nodes) stream to the
		// package-neutral ProgressEvent (exact cannot import solver).
		progress := o.Progress
		eopts.Progress = func(incumbent, bound float64, nodes int64) {
			progress(ProgressEvent{Incumbent: incumbent, Bound: bound, Nodes: nodes})
		}
	}
	var (
		sol   core.Solution
		stats exact.Stats
		err   error
	)
	if o.Objective() == MinResource {
		sol, stats, err = exact.MinResource(ctx, c, o.Target, eopts)
	} else {
		sol, stats, err = exact.MinMakespan(ctx, c, o.Budget, eopts)
	}
	if errors.Is(err, exact.ErrTruncated) {
		// No witness, but the bound is as sound as ever: answer with it,
		// as a dead-on-arrival deadline does, instead of with nothing.
		return &Report{LowerBound: cheapLowerBound(c, o)}, err
	}
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Sol:      sol,
		Exact:    stats.Complete,
		Complete: stats.Complete,
		Nodes:    stats.Nodes,
	}
	switch {
	case !stats.Complete:
		rep.LowerBound = cheapLowerBound(c, o)
	case o.Objective() == MinResource:
		// A complete run is optimal: its own metric is the tight bound.
		rep.LowerBound = float64(sol.Value)
	default:
		rep.LowerBound = float64(sol.Makespan)
	}
	if stats.Interrupted != nil {
		return rep, stats.Interrupted
	}
	return rep, nil
}

// cheapLowerBound is the combinatorial bound on o's objective that every
// report without a certified optimum carries: the slack-induced min-flow
// bound for min-resource (always available and sound, so an incomplete
// run never reads as "no bound"), the budgeted fastest-arc makespan
// otherwise.
func cheapLowerBound(c *core.Compiled, o Options) float64 {
	if o.Objective() == MinResource {
		return float64(exact.ResourceLowerBound(c, o.Target))
	}
	return float64(exact.BudgetedMakespanLowerBound(c, o.Budget))
}

// solveSPDP recognizes the instance as series-parallel, runs the
// pseudo-polynomial DP, and materializes the optimal table entry as a
// validated flow on the original instance.
func solveSPDP(ctx context.Context, c *core.Compiled, o Options) (*Report, error) {
	tree, leafArc, ok := sp.Recognize(c)
	if !ok {
		return nil, ErrNotSeriesParallel
	}
	solveTo := o.Budget
	if o.Objective() == MinResource {
		solveTo = c.MaxUsefulBudget
	}
	tables, err := sp.Solve(ctx, tree, solveTo)
	if err != nil {
		return nil, err
	}
	use := solveTo
	if o.Objective() == MinResource {
		l, ok := tables.MinResource(o.Target)
		if !ok {
			return nil, fmt.Errorf("solver: spdp: makespan target %d unreachable even with %d units", o.Target, solveTo)
		}
		use = l
	}
	f, err := tables.Flow(c.Inst, leafArc, use)
	if err != nil {
		return nil, err
	}
	sol, err := c.NewSolution(f)
	if err != nil {
		return nil, err
	}
	rep := &Report{Sol: sol, Exact: true, Complete: true}
	if o.Objective() == MinResource {
		rep.LowerBound = float64(sol.Value)
	} else {
		rep.LowerBound = float64(sol.Makespan)
	}
	return rep, nil
}
