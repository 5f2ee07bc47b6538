package solver

import (
	"context"

	"repro/internal/core"
	"repro/internal/relax"
)

// solveFrankWolfe is the scale tier's solver: the envelope relaxation of
// internal/relax (Frank-Wolfe with a certified duality-gap bound) plus
// Theorem 3.4 threshold rounding, running in O(iterations * m) time and
// O(m) memory where the dense-LP pipeline needs a tableau quadratic in the
// expanded size.  It handles both objectives: budget mode solves the
// relaxation once; target mode binary-searches the budget using certified
// relaxation infeasibility for the resource lower bound.
//
// The relax.Solver holds every scratch buffer (flows, event times, oracle
// DP arrays, the integral min-flow network) for the whole solve - including
// all Frank-Wolfe iterations and every probe of a target-mode budget
// search - so one solve call allocates a constant number of slices
// regardless of iteration count, the same per-worker state-reuse pattern
// as exact's MinFlowSolver.
func solveFrankWolfe(ctx context.Context, c *core.Compiled, o Options) (*Report, error) {
	s := relax.NewSolver(c)
	opt := relax.Options{Alpha: o.Alpha, WarmFlow: o.Incumbent}
	if o.Progress != nil {
		// Adapt the Frank-Wolfe (objective, bound, iters) stream to the
		// package-neutral ProgressEvent (relax cannot import solver).  The
		// fractional objective plays the incumbent role: it upper-bounds
		// what the rounded solution's certificate is measured against and
		// decreases monotonically, so the streamed gap shrinks exactly like
		// the exact search's.
		progress := o.Progress
		opt.Progress = func(objective, bound float64, iters int64) {
			progress(ProgressEvent{Incumbent: objective, Bound: bound, Nodes: iters})
		}
	}
	var (
		res *relax.Result
		err error
	)
	if o.Objective() == MinResource {
		res, err = s.MinResource(ctx, o.Target, opt)
	} else {
		res, err = s.MinMakespan(ctx, o.Budget, opt)
	}
	if res == nil {
		return nil, err
	}
	// A context interruption mid-iteration still yields a rounded
	// solution from the best iterate so far; it rides along as a partial
	// (Complete=false) Report, the same contract as the exact search.
	return &Report{
		Sol:          res.Sol,
		LowerBound:   res.LowerBound,
		LPLowerBound: res.LowerBound,
		Complete:     err == nil,
		Nodes:        res.Iters,
	}, err
}
