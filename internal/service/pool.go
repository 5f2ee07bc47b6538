package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/solver"
)

// pool is the service's admission control for solves: a semaphore that
// lets at most size() solves run at once, each on its caller's
// goroutine.  A request either starts promptly or waits for a slot; no
// queue hides in memory beyond the waiting goroutines themselves.
// Solver scratch state is not the pool's business — the exact search
// recycles its min-flow networks process-wide on its own.
type pool struct {
	slots   chan struct{} // one token per running solve
	closing chan struct{} // closed by close; later solves are refused

	// jobs and busyNS are utilization counters, read atomically by stats.
	jobs   atomic.Int64
	busyNS atomic.Int64
}

// errClosed fails solves that reach the pool after Server.Close began;
// the service answers it with 503 unavailable.
var errClosed = errors.New("service: shutting down")

// errPanicked wraps a solve that panicked: a server bug, not a bad
// request, so the service answers it with 500 internal.
var errPanicked = errors.New("service: solve panicked")

// PoolStats is a snapshot of pool utilization.
type PoolStats struct {
	// Workers is the pool size: how many solves may run at once.
	Workers int `json:"workers"`
	// Jobs is the total number of solves executed.
	Jobs int64 `json:"jobs"`
	// BusyMS is the cumulative wall time spent solving.
	BusyMS float64 `json:"busy_ms"`
}

// newPool admits up to n concurrent solves; n <= 0 means GOMAXPROCS.
func newPool(n int) *pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &pool{slots: make(chan struct{}, n), closing: make(chan struct{})}
}

// size is the number of solves that may run at once.
func (p *pool) size() int { return cap(p.slots) }

// do runs fn on the calling goroutine once a slot is free and returns its
// result.  Admission honors ctx: a caller that gives up while waiting
// never runs.  Once admitted, fn runs to completion — it is expected to
// carry the same ctx into solver.SolveCompiledOptions, whose solvers poll
// it cooperatively, so cancellation still cuts the solve short.  A panic
// in fn (solvers re-raise their worker goroutines' panics on this one)
// fails this solve with errPanicked, not the service, and still frees the
// slot.
func (p *pool) do(ctx context.Context, fn func() (solver.WireReport, error)) (rep solver.WireReport, err error) {
	select {
	case p.slots <- struct{}{}:
	case <-p.closing:
		return solver.WireReport{}, errClosed
	case <-ctx.Done():
		return solver.WireReport{}, ctx.Err()
	}
	select {
	case <-p.closing:
		// close began while this caller waited: it must not start a solve
		// that close would then have to wait for.
		<-p.slots
		return solver.WireReport{}, errClosed
	default:
	}
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			rep = solver.WireReport{}
			err = fmt.Errorf("%w: %v", errPanicked, r)
		}
		p.jobs.Add(1)
		p.busyNS.Add(int64(time.Since(start)))
		<-p.slots
	}()
	return fn()
}

// close refuses every later solve and waits for the running ones: it
// returns once it holds every slot.
func (p *pool) close() {
	close(p.closing)
	for i := 0; i < cap(p.slots); i++ {
		p.slots <- struct{}{}
	}
}

// stats snapshots the utilization counters.
func (p *pool) stats() PoolStats {
	return PoolStats{
		Workers: p.size(),
		Jobs:    p.jobs.Load(),
		BusyMS:  float64(p.busyNS.Load()) / float64(time.Millisecond),
	}
}
