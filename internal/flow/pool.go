package flow

import (
	"sync"

	"repro/internal/dag"
)

// Cross-solve reuse of min-flow networks.
//
// A MinFlowSolver's transformed Dinic network depends only on the graph's
// TOPOLOGY (node count, arc count, per-arc endpoints): Solve rewrites
// every capacity — forward and reverse, graph arcs, auxiliary arcs and the
// return arc — before running, so no state survives from one solve to the
// next and a network built for one graph is exactly the network another
// topology-identical graph needs.  PR 2 exploited this WITHIN one search
// (each branch-and-bound worker reuses its network across nodes);
// SolverPool lifts the same pattern ACROSS solves: a service solving many
// near-identical instances (the warm-start regime of the durable store)
// keeps a few constructed networks around and rebinds them to each new
// topology-matching instance instead of rebuilding nodes, arc pairs and
// adjacency lists from scratch.

// Fits reports whether the solver's transformed network can serve flows on
// g from s to t: identical node and arc counts, identical per-arc
// endpoints, and the same terminals.  O(m).
func (ms *MinFlowSolver) Fits(g *dag.Graph, s, t int) bool {
	if ms.s != s || ms.t != t {
		return false
	}
	og := ms.g
	if og.NumNodes() != g.NumNodes() || og.NumEdges() != g.NumEdges() {
		return false
	}
	for e := 0; e < g.NumEdges(); e++ {
		a, b := og.Edge(e), g.Edge(e)
		if a.From != b.From || a.To != b.To {
			return false
		}
	}
	return true
}

// Rebind points the solver at g, which must satisfy Fits; subsequent
// Solve calls compute flows on g.  The network itself is untouched — only
// the graph reference changes.
func (ms *MinFlowSolver) Rebind(g *dag.Graph) {
	ms.g = g
}

// SolverPool is a bounded free list of MinFlowSolvers for cross-solve
// network reuse.  Get returns a network matching the requested topology
// (rebound to the new graph) or builds a fresh one; Put returns a network
// for later reuse, evicting the least recently returned one when the
// pool is full, so a stream that moves on to new topologies keeps
// reusing its networks.  Reuse never changes any Solve result — the
// network is topology-only state and every capacity is rewritten per
// solve — so pooling affects allocation and wall time, not answers.  Safe
// for concurrent use.
type SolverPool struct {
	mu      sync.Mutex
	free    []*MinFlowSolver // oldest returned first
	hits    int64
	misses  int64
	dropped int64
}

// poolCap bounds a pool: enough for one pool of branch-and-bound workers
// to park their networks between solves without retaining unbounded
// memory for a heterogeneous instance stream.
const poolCap = 16

// NewSolverPool builds a pool retaining at most poolCap networks.
func NewSolverPool() *SolverPool {
	return &SolverPool{}
}

// Get returns a MinFlowSolver for flows on g from s to t, reusing a pooled
// network when one fits the topology.  The caller owns the returned solver
// until it gives it back with Put.
func (p *SolverPool) Get(g *dag.Graph, s, t int) *MinFlowSolver {
	if p == nil {
		return NewMinFlowSolver(g, s, t)
	}
	p.mu.Lock()
	for i := len(p.free) - 1; i >= 0; i-- {
		ms := p.free[i]
		if ms.Fits(g, s, t) {
			p.free = append(p.free[:i], p.free[i+1:]...)
			p.hits++
			p.mu.Unlock()
			ms.Rebind(g)
			return ms
		}
	}
	p.misses++
	p.mu.Unlock()
	return NewMinFlowSolver(g, s, t)
}

// Put returns a solver to the pool for later reuse; a full pool drops its
// least recently returned network to make room.  The caller must not use
// ms afterwards.
func (p *SolverPool) Put(ms *MinFlowSolver) {
	if p == nil || ms == nil {
		return
	}
	p.mu.Lock()
	if len(p.free) == poolCap {
		n := copy(p.free, p.free[1:])
		p.free[n] = nil
		p.free = p.free[:n]
		p.dropped++
	}
	p.free = append(p.free, ms)
	p.mu.Unlock()
}

// Stats reports pool effectiveness: topology-matched reuses, fresh builds,
// and networks evicted because the pool was full.
func (p *SolverPool) Stats() (hits, misses, dropped int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses, p.dropped
}
