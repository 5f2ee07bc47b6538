package solver

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// raceSolve runs the named solvers concurrently on the same instance and
// options, all under one child context.  The first solver to return a
// complete, error-free Report wins and the shared context is canceled so
// every loser stops at its next cooperative poll.  When nobody completes
// (deadline, node caps, pre-canceled parent), the most useful outcome is
// returned instead: a partial Report without error beats a partial Report
// with the context error, which beats a bare error.
//
// The racers share the process, not just the context, so auto only routes
// here when the caller explicitly opted in with Options.Parallelism >= 2.
// raceSolve returns only once every racer has: a racer that panics is
// recovered on its own goroutine, the others are canceled, and the first
// panic is re-raised here, on the caller's goroutine, so it fails this
// solve and never the process.
func raceSolve(ctx context.Context, c *core.Compiled, o Options, names ...string) (rep *Report, winner string, err error) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		name  string
		rep   *Report
		err   error
		fault any // a recovered panic
	}
	// One send per racer, so no racer ever blocks on it.
	results := make(chan outcome, len(names))
	for _, name := range names {
		go func(name string) {
			defer func() {
				if r := recover(); r != nil {
					results <- outcome{name: name, fault: r}
				}
			}()
			s, err := Get(name)
			if err != nil {
				results <- outcome{name: name, err: err}
				return
			}
			rep, err := s.Solve(rctx, c, o)
			results <- outcome{name: name, rep: rep, err: err}
		}(name)
	}
	score := func(out outcome) int {
		switch {
		case out.rep != nil && out.err == nil:
			return 2
		case out.rep != nil:
			return 1
		}
		return 0
	}
	var (
		won, fallback outcome
		haveWinner    bool
		haveFallback  bool
		fault         any
	)
	for range names {
		out := <-results
		switch {
		case out.fault != nil:
			if fault == nil {
				fault = out.fault
			}
			cancel()
		case haveWinner:
		case out.err == nil && out.rep != nil && out.rep.Complete:
			won, haveWinner = out, true
			cancel() // first complete result wins; stop the losers
		case !haveFallback || score(out) > score(fallback):
			fallback, haveFallback = out, true
		}
	}
	switch {
	case fault != nil:
		panic(fault)
	case haveWinner:
		return won.rep, won.name, nil
	case !haveFallback:
		return nil, "", fmt.Errorf("solver: race with no entrants")
	}
	return fallback.rep, fallback.name, fallback.err
}
