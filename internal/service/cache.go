package service

import (
	"container/list"
	"context"
	"strings"
	"sync"

	"repro/internal/solver"
)

// resultCache is an LRU result cache with single-flight de-duplication.
//
// Solves are pure functions of (instance, solver, options) — see
// core.Instance.CanonicalHash for the instance half of that key — so a
// repeated request must never recompute.  Two mechanisms enforce that:
//
//   - completed reports live in an LRU keyed by the full request identity,
//     so repeats are served from memory;
//   - concurrent identical requests coalesce: the first computes, the rest
//     wait on its flight and share the outcome.  Without this, a burst of
//     duplicates (the common batch shape) would all miss the still-empty
//     cache and stampede the solve pool.  In cluster mode the flight is
//     also where a non-owner forwards (see flightResult), so one flight
//     map serves both.  A flight computes under a context of its own, so
//     one waiter leaving cannot cut the others' answer short; when the
//     last waiter has left, the flight is canceled and unlisted.
//
// Only complete, error-free, locally computed reports are cached: an
// interrupted solve is an artifact of that request's deadline, not a
// property of the instance, and a forwarded report belongs to its owner.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*flight

	hits, misses, coalesced, evictions int64
}

// cacheEntry is one LRU slot.
type cacheEntry struct {
	key string
	rep solver.WireReport
}

// flightResult is what one computation hands its callers.  fwd is set
// when the leader, on a cluster node that does not own the hash, got the
// owner's response: waiters share it, the LRU never stores it.
type flightResult struct {
	rep solver.WireReport
	fwd *SolveResponse
}

// flight is one in-progress computation other requests can wait on.
type flight struct {
	done chan struct{}
	out  flightResult
	err  error
	// cancel ends the computation's context.  waiters counts the callers,
	// leader included, still waiting on the outcome; the cache's mu
	// guards it.
	cancel  context.CancelFunc
	waiters int
}

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats struct {
	// Hits counts requests served from the completed-result LRU.
	Hits int64 `json:"hits"`
	// Misses counts requests that had to compute (or, on a cluster
	// non-owner, forward).
	Misses int64 `json:"misses"`
	// Coalesced counts requests that waited on an identical in-flight
	// solve instead of computing (single-flight de-duplication).
	Coalesced int64 `json:"coalesced"`
	// Evictions counts LRU evictions.
	Evictions int64 `json:"evictions"`
	// Size and Capacity describe the LRU occupancy.
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
}

// newResultCache builds a cache holding up to capacity completed reports.
// capacity <= 0 disables storage but keeps single-flight de-duplication.
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// do returns the cached report for key or runs compute, and stores a
// complete, error-free, local result.  cached is true when compute did
// not run for this call.  With share set, identical concurrent calls
// coalesce: the first leads a flight and the rest wait on it, each
// honoring its own ctx.  The flight's compute runs on the leader's
// goroutine under a context detached from every waiter, canceled once
// the last of them has left.  Without share (deadline-bounded requests)
// the call neither leads nor joins a flight and computes under its own
// ctx, so it never hands out — or inherits — a truncation shaped by one
// request's deadline.  The returned report's Flow slice is shared across
// callers and must be treated as immutable.
func (c *resultCache) do(ctx context.Context, key string, share bool, compute func(context.Context) (flightResult, error)) (out flightResult, cached bool, err error) {
	c.mu.Lock()
	if rep, ok := c.lookupLocked(key); ok {
		c.mu.Unlock()
		return flightResult{rep: rep}, true, nil
	}
	var f *flight
	solveCtx := ctx
	if share {
		if joined, ok := c.inflight[key]; ok {
			c.coalesced++
			joined.waiters++
			c.mu.Unlock()
			stop := context.AfterFunc(ctx, func() { c.leave(key, joined) })
			select {
			case <-joined.done:
				stop()
				return joined.out, true, joined.err
			case <-ctx.Done():
				// This caller gives up; the flight computes on for whoever
				// still waits.
				return flightResult{}, false, ctx.Err()
			}
		}
		var cancel context.CancelFunc
		solveCtx, cancel = context.WithCancel(context.WithoutCancel(ctx))
		defer cancel()
		f = &flight{done: make(chan struct{}), cancel: cancel, waiters: 1}
		c.inflight[key] = f
	}
	c.misses++
	c.mu.Unlock()
	if f != nil {
		stop := context.AfterFunc(ctx, func() { c.leave(key, f) })
		defer stop()
	}

	out, err = compute(solveCtx)

	c.mu.Lock()
	if f != nil && c.inflight[key] == f {
		delete(c.inflight, key)
	}
	if err == nil && out.fwd == nil && out.rep.Complete && c.capacity > 0 {
		if _, ok := c.items[key]; !ok {
			c.items[key] = c.ll.PushFront(&cacheEntry{key: key, rep: out.rep})
			for c.ll.Len() > c.capacity {
				oldest := c.ll.Back()
				c.ll.Remove(oldest)
				delete(c.items, oldest.Value.(*cacheEntry).key)
				c.evictions++
			}
		}
	}
	c.mu.Unlock()
	if f != nil {
		f.out, f.err = out, err
		close(f.done)
	}
	return out, false, err
}

// leave drops one waiter from flight f.  The last one out cancels the
// flight's compute and unlists it, so a later identical request leads a
// new flight instead of joining one that is winding down.
func (c *resultCache) leave(key string, f *flight) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f.waiters--; f.waiters > 0 {
		return
	}
	if c.inflight[key] == f {
		delete(c.inflight, key)
	}
	f.cancel()
}

// lookupLocked returns the cached report for key and counts a hit.  The
// caller holds c.mu.
//
//rt:hotpath — the result-cache lookup on every solve request.
func (c *resultCache) lookupLocked(key string) (solver.WireReport, bool) {
	el, ok := c.items[key]
	if !ok {
		return solver.WireReport{}, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).rep, true
}

// resultsForHash counts cached reports whose key embeds the canonical
// instance hash (keys are "solver|hash|optkey"), across all solvers and
// options.  It neither recences LRU entries nor counts a hit or miss:
// the probe endpoint must observe the cache, not perturb it.
func (c *resultCache) resultsForHash(hash string) int {
	if hash == "" {
		return 0
	}
	needle := "|" + hash + "|"
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if strings.Contains(el.Value.(*cacheEntry).key, needle) {
			n++
		}
	}
	return n
}

// stats snapshots the counters.
func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
		Size:      c.ll.Len(),
		Capacity:  c.capacity,
	}
}
