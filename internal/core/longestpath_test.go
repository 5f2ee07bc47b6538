package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/duration"
)

// slowLongestPath is the reference the kernel is checked against: a
// memoized recursion over in-arcs, longest path into the sink.
func slowLongestPath(inst *core.Instance, d []int64) int64 {
	g := inst.G
	memo := make(map[int]int64)
	var longest func(v int) int64
	longest = func(v int) int64 {
		if m, ok := memo[v]; ok {
			return m
		}
		var best int64
		for _, e := range g.In(v) {
			if c := longest(g.Edge(e).From) + d[e]; c > best {
				best = c
			}
		}
		memo[v] = best
		return best
	}
	return longest(inst.Sink)
}

// constInstance pairs g with constant jobs of the given durations, so the
// compiled MinDur is d itself.
func constInstance(t *testing.T, g *dag.Graph, d []int64) *core.Instance {
	t.Helper()
	fns := make([]duration.Func, len(d))
	for e, x := range d {
		fns[e] = duration.Constant(x)
	}
	inst, err := core.NewInstance(g, fns)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// randomLayered builds a random single-source single-sink layered DAG
// with random arc durations: every layer node hangs off the previous
// layer, a few extra arcs add density, and every node gets a way out.
func randomLayered(t *testing.T, rng *rand.Rand) (*core.Instance, []int64) {
	t.Helper()
	g := dag.New()
	prev := []int{g.AddNode("s")}
	layers := 1 + rng.Intn(4)
	for l := 0; l < layers; l++ {
		layer := make([]int, 1+rng.Intn(3))
		for i := range layer {
			layer[i] = g.AddNode("v")
			g.AddEdge(prev[rng.Intn(len(prev))], layer[i])
		}
		for i := 0; i < 2; i++ {
			g.AddEdge(prev[rng.Intn(len(prev))], layer[rng.Intn(len(layer))])
		}
		for _, u := range prev {
			if g.OutDegree(u) == 0 {
				g.AddEdge(u, layer[rng.Intn(len(layer))])
			}
		}
		prev = layer
	}
	sink := g.AddNode("t")
	for _, u := range prev {
		g.AddEdge(u, sink)
	}
	d := make([]int64, g.NumEdges())
	for e := range d {
		d[e] = int64(rng.Intn(10))
	}
	return constInstance(t, g, d), d
}

func TestLongestPathLine(t *testing.T) {
	g := dag.New()
	for i := 0; i < 5; i++ {
		g.AddNode("v")
	}
	for i := 0; i+1 < 5; i++ {
		g.AddEdge(i, i+1)
	}
	d := []int64{3, 1, 4, 1}
	c := core.Compile(constInstance(t, g, d))
	et, rt := make([]int64, 5), make([]int64, 5)
	if got := c.LongestPath(d, et); got != 9 {
		t.Fatalf("LongestPath = %d; want 9", got)
	}
	if got := c.ReverseLongestPath(d, rt); got != 9 {
		t.Fatalf("ReverseLongestPath = %d; want 9", got)
	}
	wantF, wantR := []int64{0, 3, 4, 8, 9}, []int64{9, 6, 5, 1, 0}
	for v := range wantF {
		if et[v] != wantF[v] || rt[v] != wantR[v] {
			t.Fatalf("node %d: forward %d reverse %d; want %d and %d", v, et[v], rt[v], wantF[v], wantR[v])
		}
	}
}

func TestLongestPathDiamondTakesMax(t *testing.T) {
	g := dag.New()
	s, a, b, snk := g.AddNode("s"), g.AddNode("a"), g.AddNode("b"), g.AddNode("t")
	g.AddEdge(s, a)
	g.AddEdge(a, snk)
	g.AddEdge(s, b)
	g.AddEdge(b, snk)
	// Path via a costs 2+5=7, via b costs 3+1=4.
	d := []int64{2, 5, 3, 1}
	c := core.Compile(constInstance(t, g, d))
	if got := c.LongestPath(d, make([]int64, 4)); got != 7 {
		t.Fatalf("LongestPath = %d; want 7", got)
	}
	if got := c.ReverseLongestPath(d, make([]int64, 4)); got != 7 {
		t.Fatalf("ReverseLongestPath = %d; want 7", got)
	}
}

// TestLongestPathMatchesSlowReference checks both sweeps on random
// layered DAGs: the forward sweep against the slow recursion, the reverse
// sweep's makespan against the forward one, every arc's through-path
// fwd[u]+d[e]+rev[v] against the makespan, and that the tight arcs contain
// a source-to-sink path of exactly the makespan (a critical path).
func TestLongestPathMatchesSlowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		inst, d := randomLayered(t, rng)
		c := core.Compile(inst)
		n := inst.G.NumNodes()
		fwd, rev := make([]int64, n), make([]int64, n)
		makespan := c.LongestPath(d, fwd)
		if want := slowLongestPath(inst, d); makespan != want {
			t.Fatalf("trial %d: LongestPath = %d; slow = %d", trial, makespan, want)
		}
		if got := c.ReverseLongestPath(d, rev); got != makespan {
			t.Fatalf("trial %d: ReverseLongestPath = %d; forward %d", trial, got, makespan)
		}
		for e := 0; e < inst.G.NumEdges(); e++ {
			ed := inst.G.Edge(e)
			if through := fwd[ed.From] + d[e] + rev[ed.To]; through > makespan {
				t.Fatalf("trial %d arc %d: path through it %d exceeds makespan %d", trial, e, through, makespan)
			}
		}
		var length int64
		for v := inst.Source; v != inst.Sink; {
			next := -1
			for _, e := range inst.G.Out(v) {
				w := inst.G.Edge(e).To
				if fwd[v]+d[e] == fwd[w] && fwd[v]+d[e]+rev[w] == makespan {
					next, length = w, length+d[e]
					break
				}
			}
			if next < 0 {
				t.Fatalf("trial %d: no tight arc leaves node %d", trial, v)
			}
			v = next
		}
		if length != makespan {
			t.Fatalf("trial %d: critical path length %d; want %d", trial, length, makespan)
		}
	}
}

// TestLongestPathAllocationFree pins the kernel's contract with the exact
// search, which sweeps up to three times per node: no allocation.
func TestLongestPathAllocationFree(t *testing.T) {
	inst, d := randomLayered(t, rand.New(rand.NewSource(11)))
	c := core.Compile(inst)
	et := make([]int64, inst.G.NumNodes())
	if n := testing.AllocsPerRun(100, func() {
		c.LongestPath(d, et)
		c.ReverseLongestPath(d, et)
	}); n != 0 {
		t.Fatalf("kernel allocates %v times per sweep pair", n)
	}
}

func TestMakespanWrongLength(t *testing.T) {
	inst, _ := randomLayered(t, rand.New(rand.NewSource(3)))
	if _, err := core.Compile(inst).Makespan([]int64{1}); err == nil {
		t.Fatal("want error for a flow of the wrong length")
	}
}
