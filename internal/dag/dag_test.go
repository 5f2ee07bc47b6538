package dag

import (
	"math/rand"
	"testing"
)

// line builds s -> v1 -> ... -> v(n-1) and returns the graph.
func line(n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode("v")
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// diamond builds the 4-node diamond s -> {a, b} -> t.
func diamond() *Graph {
	g := New()
	s := g.AddNode("s")
	a := g.AddNode("a")
	b := g.AddNode("b")
	t := g.AddNode("t")
	g.AddEdge(s, a)
	g.AddEdge(a, t)
	g.AddEdge(s, b)
	g.AddEdge(b, t)
	return g
}

func TestAddNodeEdgeBasics(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	if a != 0 || b != 1 {
		t.Fatalf("node IDs = %d, %d; want 0, 1", a, b)
	}
	e := g.AddEdge(a, b)
	if e != 0 {
		t.Fatalf("edge ID = %d; want 0", e)
	}
	if got := g.Edge(e); got.From != a || got.To != b {
		t.Fatalf("Edge(%d) = %+v", e, got)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("NumNodes=%d NumEdges=%d", g.NumNodes(), g.NumEdges())
	}
	if g.OutDegree(a) != 1 || g.InDegree(b) != 1 || g.InDegree(a) != 0 {
		t.Fatal("degree bookkeeping wrong")
	}
	if g.Name(a) != "a" {
		t.Fatalf("Name = %q", g.Name(a))
	}
	g.SetName(a, "s")
	if g.Name(a) != "s" {
		t.Fatalf("SetName did not take: %q", g.Name(a))
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for out-of-range endpoint")
		}
	}()
	New().AddEdge(0, 1)
}

func TestTopoOrder(t *testing.T) {
	g := diamond()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, g.NumNodes())
	for i, v := range order {
		pos[v] = i
	}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(e)
		if pos[ed.From] >= pos[ed.To] {
			t.Fatalf("edge %d violates topological order", e)
		}
	}
}

func TestTopoOrderCycle(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	if _, err := g.TopoOrder(); err != ErrCyclic {
		t.Fatalf("err = %v; want ErrCyclic", err)
	}
}

func TestValidateAcceptsDiamond(t *testing.T) {
	s, snk, err := diamond().Validate()
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 || snk != 3 {
		t.Fatalf("source=%d sink=%d; want 0, 3", s, snk)
	}
}

func TestValidateRejections(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if _, _, err := New().Validate(); err == nil {
			t.Fatal("want error for empty graph")
		}
	})
	t.Run("two sources", func(t *testing.T) {
		g := New()
		a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
		g.AddEdge(a, c)
		g.AddEdge(b, c)
		if _, _, err := g.Validate(); err == nil {
			t.Fatal("want error for two sources")
		}
	})
	t.Run("two sinks", func(t *testing.T) {
		g := New()
		a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
		g.AddEdge(a, b)
		g.AddEdge(a, c)
		if _, _, err := g.Validate(); err == nil {
			t.Fatal("want error for two sinks")
		}
	})
	t.Run("self loop", func(t *testing.T) {
		g := line(3)
		g.AddEdge(1, 1)
		if _, _, err := g.Validate(); err == nil {
			t.Fatal("want error for self loop")
		}
	})
	t.Run("cycle", func(t *testing.T) {
		g := line(4)
		g.AddEdge(2, 1)
		if _, _, err := g.Validate(); err == nil {
			t.Fatal("want error for cycle")
		}
	})
}

// TestCriticalPath picks the diamond's critical path out of the paths that
// Paths enumerates: the heaviest one under the durations must be the
// longest source-to-sink path, a contiguous edge chain through a.
func TestCriticalPath(t *testing.T) {
	g := diamond()
	dur := []int64{2, 5, 3, 1}
	paths, exhaustive := g.Paths(0, 3, 0)
	if !exhaustive {
		t.Fatal("diamond path enumeration not exhaustive")
	}
	var path []int
	length := int64(-1)
	for _, p := range paths {
		var sum int64
		for _, e := range p {
			sum += dur[e]
		}
		if sum > length {
			path, length = p, sum
		}
	}
	if length != 7 {
		t.Fatalf("length = %d; want 7", length)
	}
	if len(path) != 2 || path[0] != 0 || path[1] != 1 {
		t.Fatalf("critical path = %v; want [0 1] (via a)", path)
	}
	// Path must be contiguous from source to sink.
	if g.Edge(path[0]).From != 0 || g.Edge(path[len(path)-1]).To != 3 {
		t.Fatal("critical path does not span source to sink")
	}
	for i := 0; i+1 < len(path); i++ {
		if g.Edge(path[i]).To != g.Edge(path[i+1]).From {
			t.Fatal("critical path not contiguous")
		}
	}
}

func TestPathsDiamond(t *testing.T) {
	g := diamond()
	paths, exhaustive := g.Paths(0, 3, 0)
	if !exhaustive || len(paths) != 2 {
		t.Fatalf("paths = %v exhaustive = %v; want 2 paths", paths, exhaustive)
	}
}

func TestPathsLimit(t *testing.T) {
	g := diamond()
	paths, exhaustive := g.Paths(0, 3, 1)
	if exhaustive || len(paths) != 1 {
		t.Fatalf("limit=1: got %d paths exhaustive=%v", len(paths), exhaustive)
	}
}

// TestReachability checks the guarantee Validate gives without walking the
// graph: on random acyclic graphs, it accepts exactly those with one source
// and one sink in which every node is reachable from the source and reaches
// the sink.  A node off every source-to-sink path leaves another node without
// in-arcs or without out-arcs, so the source and sink counts catch it.
func TestReachability(t *testing.T) {
	reach := func(g *Graph, v int, forward bool) []bool {
		seen := make([]bool, g.NumNodes())
		seen[v] = true
		for stack := []int{v}; len(stack) > 0; {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			arcs, next := g.In(u), func(e int) int { return g.Edge(e).From }
			if forward {
				arcs, next = g.Out(u), func(e int) int { return g.Edge(e).To }
			}
			for _, e := range arcs {
				if w := next(e); !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		return seen
	}
	rng := rand.New(rand.NewSource(11))
	accepted, rejected := 0, 0
	for trial := 0; trial < 2000; trial++ {
		// Arcs only run from lower to higher IDs, so the graph is acyclic.
		g := New()
		n := 1 + rng.Intn(7)
		for v := 0; v < n; v++ {
			g.AddNode("v")
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) == 0 {
					g.AddEdge(u, v)
				}
			}
		}
		want := false
		if srcs, snks := g.Sources(), g.Sinks(); len(srcs) == 1 && len(snks) == 1 {
			from, to := reach(g, srcs[0], true), reach(g, snks[0], false)
			want = true
			for v := 0; v < n; v++ {
				want = want && from[v] && to[v]
			}
		}
		s, snk, err := g.Validate()
		if got := err == nil; got != want {
			t.Fatalf("trial %d: Validate err = %v; every node on a source-to-sink path = %v", trial, err, want)
		}
		if err != nil {
			rejected++
			continue
		}
		accepted++
		from, to := reach(g, s, true), reach(g, snk, false)
		for v := 0; v < n; v++ {
			if !from[v] || !to[v] {
				t.Fatalf("trial %d: Validate accepted node %d off every path from %d to %d", trial, v, s, snk)
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("accepted %d and rejected %d graphs; want both", accepted, rejected)
	}
}

// TestRandomLayeredTopoAndTimes checks TopoOrder on random layered DAGs:
// every edge points forward in the order, so one sweep along it yields
// each node's event time (its longest-path distance from the sources),
// and the largest must match a slow recursive longest-path computation.
func TestRandomLayeredTopoAndTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		g, dur := randomLayered(rng)
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		pos := make([]int, g.NumNodes())
		for i, v := range order {
			pos[v] = i
		}
		for e := 0; e < g.NumEdges(); e++ {
			if ed := g.Edge(e); pos[ed.From] >= pos[ed.To] {
				t.Fatalf("trial %d: edge %d violates topological order", trial, e)
			}
		}
		times := make([]int64, g.NumNodes())
		var got int64
		for _, v := range order {
			if times[v] > got {
				got = times[v]
			}
			for _, e := range g.Out(v) {
				if w := g.Edge(e).To; times[v]+dur[e] > times[w] {
					times[w] = times[v] + dur[e]
				}
			}
		}
		if want := slowMakespan(g, dur); got != want {
			t.Fatalf("trial %d: makespan along TopoOrder = %d; slow = %d", trial, got, want)
		}
	}
}

func randomLayered(rng *rand.Rand) (*Graph, []int64) {
	g := New()
	s := g.AddNode("s")
	prev := []int{s}
	for l := 0; l < 3; l++ {
		width := 1 + rng.Intn(3)
		var layer []int
		for i := 0; i < width; i++ {
			v := g.AddNode("v")
			layer = append(layer, v)
			g.AddEdge(prev[rng.Intn(len(prev))], v)
		}
		// Extra random edges for density.
		for i := 0; i < 2; i++ {
			g.AddEdge(prev[rng.Intn(len(prev))], layer[rng.Intn(len(layer))])
		}
		prev = layer
	}
	t := g.AddNode("t")
	for _, v := range prev {
		g.AddEdge(v, t)
	}
	dur := make([]int64, g.NumEdges())
	for e := range dur {
		dur[e] = int64(rng.Intn(10))
	}
	return g, dur
}

func slowMakespan(g *Graph, dur []int64) int64 {
	memo := make(map[int]int64)
	var longest func(v int) int64
	longest = func(v int) int64 {
		if m, ok := memo[v]; ok {
			return m
		}
		var best int64
		for _, e := range g.In(v) {
			if c := longest(g.Edge(e).From) + dur[e]; c > best {
				best = c
			}
		}
		memo[v] = best
		return best
	}
	var best int64
	for v := 0; v < g.NumNodes(); v++ {
		if c := longest(v); c > best {
			best = c
		}
	}
	return best
}
