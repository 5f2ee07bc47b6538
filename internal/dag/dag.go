// Package dag implements the directed-acyclic-multigraph substrate used by
// every other package in this repository.
//
// The graphs here model the project networks of Das et al. (SPAA 2019):
// vertices are events, arcs are jobs (activity-on-arc form) or precedence
// edges, and the central quantities are topological orders and the
// source-to-sink paths along which resources flow.  Longest paths under
// per-arc durations are computed on the compiled form
// (core.Compiled.LongestPath).  Multi-arcs are allowed because both the
// two-tuple expansion of Section 3.1 and the race DAGs of Section 1
// naturally create parallel arcs.
package dag

import (
	"errors"
	"fmt"
)

// Edge is a directed arc between two node IDs.
type Edge struct {
	From, To int
}

// Graph is a mutable directed multigraph with dense integer node and edge
// IDs.  Nodes and edges are never removed; algorithms that need a reduced
// graph (e.g. series-parallel recognition) copy into their own structures.
type Graph struct {
	names []string
	edges []Edge
	out   [][]int // node -> outgoing edge IDs, in insertion order
	in    [][]int // node -> incoming edge IDs, in insertion order
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddNode adds a node with the given display name and returns its ID.
func (g *Graph) AddNode(name string) int {
	id := len(g.names)
	g.names = append(g.names, name)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// AddEdge adds an arc from u to v and returns its edge ID.  Parallel arcs
// and self-loops are representable; self-loops are rejected by Validate.
func (g *Graph) AddEdge(u, v int) int {
	if u < 0 || u >= len(g.names) || v < 0 || v >= len(g.names) {
		panic(fmt.Sprintf("dag: AddEdge(%d, %d) with %d nodes", u, v, len(g.names)))
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{From: u, To: v})
	g.out[u] = append(g.out[u], id)
	g.in[v] = append(g.in[v], id)
	return id
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.names) }

// NumEdges reports the number of arcs.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the endpoints of edge e.
func (g *Graph) Edge(e int) Edge { return g.edges[e] }

// Name returns the display name of node v.
func (g *Graph) Name(v int) string { return g.names[v] }

// SetName replaces the display name of node v.
func (g *Graph) SetName(v int, name string) { g.names[v] = name }

// Out returns the IDs of arcs leaving v.  The slice is owned by the graph.
func (g *Graph) Out(v int) []int { return g.out[v] }

// In returns the IDs of arcs entering v.  The slice is owned by the graph.
func (g *Graph) In(v int) []int { return g.in[v] }

// OutDegree reports the number of arcs leaving v.
func (g *Graph) OutDegree(v int) int { return len(g.out[v]) }

// InDegree reports the number of arcs entering v.
func (g *Graph) InDegree(v int) int { return len(g.in[v]) }

// ErrCyclic is reported when a graph expected to be acyclic has a cycle.
var ErrCyclic = errors.New("dag: graph contains a cycle")

// TopoOrder returns a topological order of the nodes, or ErrCyclic.
func (g *Graph) TopoOrder() ([]int, error) {
	n := len(g.names)
	indeg := make([]int, n)
	for _, e := range g.edges {
		indeg[e.To]++
	}
	order := make([]int, 0, n)
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, e := range g.out[v] {
			w := g.edges[e].To
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCyclic
	}
	return order, nil
}

// Sources returns all nodes with in-degree zero.
func (g *Graph) Sources() []int {
	var s []int
	for v := range g.names {
		if len(g.in[v]) == 0 {
			s = append(s, v)
		}
	}
	return s
}

// Sinks returns all nodes with out-degree zero.
func (g *Graph) Sinks() []int {
	var s []int
	for v := range g.names {
		if len(g.out[v]) == 0 {
			s = append(s, v)
		}
	}
	return s
}

// Validate checks that the graph is a single-source single-sink DAG, and so
// that every node lies on some source-to-sink path: walking in-arcs back
// from any node of a finite DAG ends at a node without in-arcs, the one
// source, and walking out-arcs forward ends at the one sink.  It returns
// the source and sink IDs.  This is the structural precondition of the
// resource-flow model: a unit of resource must be routable through any arc.
func (g *Graph) Validate() (source, sink int, err error) {
	if g.NumNodes() == 0 {
		return 0, 0, errors.New("dag: empty graph")
	}
	for id, e := range g.edges {
		if e.From == e.To {
			return 0, 0, fmt.Errorf("dag: edge %d is a self-loop on node %d", id, e.From)
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return 0, 0, err
	}
	srcs, snks := g.Sources(), g.Sinks()
	if len(srcs) != 1 {
		return 0, 0, fmt.Errorf("dag: want exactly 1 source, have %d", len(srcs))
	}
	if len(snks) != 1 {
		return 0, 0, fmt.Errorf("dag: want exactly 1 sink, have %d", len(snks))
	}
	return srcs[0], snks[0], nil
}

// Paths enumerates source-to-sink paths between s and t as sequences of edge
// IDs, visiting at most limit paths (limit <= 0 means no bound).  It reports
// whether enumeration was exhaustive.
func (g *Graph) Paths(s, t, limit int) (paths [][]int, exhaustive bool) {
	exhaustive = true
	var cur []int
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == t {
			paths = append(paths, append([]int(nil), cur...))
			return limit <= 0 || len(paths) < limit
		}
		for _, e := range g.out[v] {
			cur = append(cur, e)
			ok := rec(g.edges[e].To)
			cur = cur[:len(cur)-1]
			if !ok {
				exhaustive = false
				return false
			}
		}
		return true
	}
	rec(s)
	return paths, exhaustive
}
