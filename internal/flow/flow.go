// Package flow implements integral network flow: Dinic's max-flow algorithm
// and, on top of it, minimum flow with per-edge lower bounds.
//
// Min-flow is the combinatorial engine behind Section 3.1 of Das et al.
// (SPAA 2019): after LP rounding yields an integral resource requirement
// f'_e on every arc, the total resource budget is minimized by computing a
// minimum source-to-sink flow whose value on every arc is at least f'_e
// (LP 11-13 in the paper, which has integral optima).  The returned flow is
// integral, certifying Lemma 3.3.
package flow

import (
	"errors"
	"fmt"

	"repro/internal/dag"
)

// Dinic is a max-flow network over dense integer node IDs.  Arcs are added
// in pairs (forward + residual).  The zero value is not usable; construct
// with NewDinic.
type Dinic struct {
	n     int
	to    []int
	cap   []int64
	head  [][]int // node -> arc indices
	level []int
	iter  []int
	queue []int // BFS scratch, reused across phases
}

// NewDinic returns an empty network with n nodes.
func NewDinic(n int) *Dinic {
	return &Dinic{
		n:     n,
		head:  make([][]int, n),
		level: make([]int, n),
		iter:  make([]int, n),
		queue: make([]int, 0, n),
	}
}

// AddArc adds a directed arc u -> v with the given capacity and returns its
// arc index.  The residual arc is the returned index XOR 1.
func (d *Dinic) AddArc(u, v int, capacity int64) int {
	if capacity < 0 {
		panic(fmt.Sprintf("flow: negative capacity %d", capacity))
	}
	id := len(d.to)
	d.to = append(d.to, v, u)
	d.cap = append(d.cap, capacity, 0)
	d.head[u] = append(d.head[u], id)
	d.head[v] = append(d.head[v], id+1)
	return id
}

// Flow reports the amount currently pushed along arc id (the capacity that
// has moved to its residual).
func (d *Dinic) Flow(id int) int64 { return d.cap[id^1] }

// SetCap overrides the remaining capacity of arc id; used to freeze
// auxiliary arcs between phases of the lower-bound transformation.
func (d *Dinic) SetCap(id int, capacity int64) { d.cap[id] = capacity }

func (d *Dinic) bfs(s, t int) bool {
	for i := range d.level {
		d.level[i] = -1
	}
	queue := append(d.queue[:0], s)
	d.level[s] = 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, id := range d.head[v] {
			if d.cap[id] > 0 && d.level[d.to[id]] < 0 {
				d.level[d.to[id]] = d.level[v] + 1
				queue = append(queue, d.to[id])
			}
		}
	}
	return d.level[t] >= 0
}

func (d *Dinic) dfs(v, t int, f int64) int64 {
	if v == t {
		return f
	}
	for ; d.iter[v] < len(d.head[v]); d.iter[v]++ {
		id := d.head[v][d.iter[v]]
		w := d.to[id]
		if d.cap[id] <= 0 || d.level[w] != d.level[v]+1 {
			continue
		}
		pushed := f
		if d.cap[id] < pushed {
			pushed = d.cap[id]
		}
		if got := d.dfs(w, t, pushed); got > 0 {
			d.cap[id] -= got
			d.cap[id^1] += got
			return got
		}
	}
	return 0
}

const inf = int64(1) << 60

// MaxFlow runs Dinic's algorithm from s to t and returns the max-flow
// value.  It may be called repeatedly (e.g. after modifying capacities);
// each call augments the current flow.
//
// s == t returns 0: a degenerate query, but one that arises naturally -
// the min-flow reduction runs a t-to-s cancellation phase, and a
// single-node instance (source == sink, no arcs) is wire-legal.  Without
// the guard the DFS would "augment" an infinite-capacity empty path
// forever (found by FuzzCanonicalHash).
func (d *Dinic) MaxFlow(s, t int) int64 {
	if s == t {
		return 0
	}
	var total int64
	for d.bfs(s, t) {
		for i := range d.iter {
			d.iter[i] = 0
		}
		for {
			f := d.dfs(s, t, inf)
			if f == 0 {
				break
			}
			total += f
		}
	}
	return total
}

// Result is an integral flow on a DAG's edges.
type Result struct {
	// EdgeFlow[e] is the flow on edge e of the input graph.
	EdgeFlow []int64
	// Value is the net flow out of the source.
	Value int64
}

// ErrInfeasible is returned when no flow satisfies the lower bounds; with a
// validated single-source single-sink DAG this cannot happen (every edge
// lies on a source-to-sink path), so seeing it indicates a malformed input.
var ErrInfeasible = errors.New("flow: lower bounds are infeasible")

func errBoundCount(got, want int) error {
	return fmt.Errorf("flow: got %d lower bounds for %d edges", got, want)
}

func errNegativeBound(e int) error {
	return fmt.Errorf("flow: negative lower bound on edge %d", e)
}

// MinFlow computes a minimum-value integral s-to-t flow on g subject to
// EdgeFlow[e] >= lower[e] for every edge, with no upper capacities (the
// paper's model places no caps on how much resource an arc may carry).
//
// The algorithm is the textbook two-phase reduction: (1) find any feasible
// flow via a super-source/super-sink max-flow with a t->s return arc;
// (2) cancel as much of the return flow as possible by running max-flow
// from t to s in the residual network.  Both phases are integral, so the
// result is integral, matching the integrality argument of Lemma 3.3.
//
// MinFlow builds the transformed network from scratch on every call; for
// repeated solves on one graph use MinFlowSolver, which reuses it.  The
// solver is private to the call, so the returned EdgeFlow is the
// caller's.
func MinFlow(g *dag.Graph, lower []int64, s, t int) (Result, error) {
	return NewMinFlowSolver(g, s, t).Solve(lower)
}

// Conserved checks that f is a valid s-to-t flow on g: non-negative, with
// net outflow zero at every internal node, and returns the flow value.
func Conserved(g *dag.Graph, f []int64, s, t int) (int64, error) {
	if len(f) != g.NumEdges() {
		return 0, fmt.Errorf("flow: got %d flows for %d edges", len(f), g.NumEdges())
	}
	net := make([]int64, g.NumNodes())
	for e := 0; e < g.NumEdges(); e++ {
		if f[e] < 0 {
			return 0, fmt.Errorf("flow: negative flow on edge %d", e)
		}
		ed := g.Edge(e)
		net[ed.From] -= f[e]
		net[ed.To] += f[e]
	}
	for v := range net {
		if v == s || v == t {
			continue
		}
		if net[v] != 0 {
			return 0, fmt.Errorf("flow: conservation violated at node %d (net %d)", v, net[v])
		}
	}
	if -net[s] != net[t] {
		return 0, fmt.Errorf("flow: source outflow %d != sink inflow %d", -net[s], net[t])
	}
	return -net[s], nil
}
