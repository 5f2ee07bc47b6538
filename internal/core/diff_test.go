package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/duration"
)

// diffDiamond builds s -> {a, b} -> t with the given four duration
// functions (a second diamond helper lives in hash_test.go with a
// different shape).
func diffDiamond(fns ...duration.Func) *Instance {
	g := dag.New()
	s := g.AddNode("s")
	a := g.AddNode("a")
	b := g.AddNode("b")
	t := g.AddNode("t")
	g.AddEdge(s, a)
	g.AddEdge(a, t)
	g.AddEdge(s, b)
	g.AddEdge(b, t)
	return MustInstance(g, fns)
}

func TestSketchTopologyOnly(t *testing.T) {
	a := diffDiamond(duration.Constant(1), duration.Constant(2), duration.Constant(3), duration.Constant(4))
	b := diffDiamond(duration.Constant(9), duration.MustStep(duration.Tuple{R: 0, T: 8}, duration.Tuple{R: 2, T: 3}), duration.Constant(3), duration.Constant(4))
	ca, cb := Compile(a), Compile(b)
	if ca.Sketch() != cb.Sketch() {
		t.Fatalf("sketch must ignore durations: %s vs %s", ca.Sketch(), cb.Sketch())
	}
	if ca.Hash() == cb.Hash() {
		t.Fatal("canonical hash must see the duration change")
	}
	if got := ca.Sketch(); got != ca.Inst.Sketch() {
		t.Fatalf("compiled sketch %s != instance sketch %s", got, ca.Inst.Sketch())
	}

	// A different topology (extra arc) must sketch differently.
	g := dag.New()
	s := g.AddNode("s")
	x := g.AddNode("a")
	y := g.AddNode("b")
	tt := g.AddNode("t")
	g.AddEdge(s, x)
	g.AddEdge(x, tt)
	g.AddEdge(s, y)
	g.AddEdge(y, tt)
	g.AddEdge(s, tt)
	c := MustInstance(g, []duration.Func{
		duration.Constant(1), duration.Constant(2), duration.Constant(3), duration.Constant(4), duration.Constant(5),
	})
	if Compile(c).Sketch() == ca.Sketch() {
		t.Fatal("extra arc must change the sketch")
	}
}

func TestSketchSensitiveToArcOrder(t *testing.T) {
	// Same DAG, arcs inserted in a different order: the canonical hash is
	// order-insensitive by design, the sketch is order-SENSITIVE by design
	// (flows transfer index-wise only when indices align).
	mk := func(swap bool) *Instance {
		g := dag.New()
		s := g.AddNode("s")
		a := g.AddNode("a")
		b := g.AddNode("b")
		tt := g.AddNode("t")
		if swap {
			g.AddEdge(s, b)
			g.AddEdge(b, tt)
			g.AddEdge(s, a)
			g.AddEdge(a, tt)
			return MustInstance(g, []duration.Func{
				duration.Constant(3), duration.Constant(4), duration.Constant(1), duration.Constant(2),
			})
		}
		g.AddEdge(s, a)
		g.AddEdge(a, tt)
		g.AddEdge(s, b)
		g.AddEdge(b, tt)
		return MustInstance(g, []duration.Func{
			duration.Constant(1), duration.Constant(2), duration.Constant(3), duration.Constant(4),
		})
	}
	ca, cb := Compile(mk(false)), Compile(mk(true))
	if ca.Hash() != cb.Hash() {
		t.Fatal("canonical hash must be arc-order insensitive")
	}
	if ca.Sketch() == cb.Sketch() {
		t.Fatal("sketch must be arc-order sensitive")
	}
}

func TestDiffTouchedArcs(t *testing.T) {
	base := diffDiamond(duration.Constant(1), duration.Constant(2), duration.Constant(3), duration.Constant(4))
	same := diffDiamond(duration.Constant(1), duration.Constant(2), duration.Constant(3), duration.Constant(4))
	d := Diff(Compile(base), Compile(same))
	if !d.SameTopology || len(d.TouchedArcs) != 0 || d.TouchedBreakpoints != 0 {
		t.Fatalf("identical instances: got %+v", d)
	}

	// One constant changed, one arc reshaped into a two-tuple step.
	neighbor := diffDiamond(
		duration.Constant(1),
		duration.Constant(7),
		duration.MustStep(duration.Tuple{R: 0, T: 3}, duration.Tuple{R: 2, T: 1}),
		duration.Constant(4),
	)
	d = Diff(Compile(base), Compile(neighbor))
	if !d.SameTopology {
		t.Fatal("same topology expected")
	}
	if len(d.TouchedArcs) != 2 || d.TouchedArcs[0] != 1 || d.TouchedArcs[1] != 2 {
		t.Fatalf("touched arcs: got %v, want [1 2]", d.TouchedArcs)
	}
	// Arc 1: one tuple differs.  Arc 2: base is [(0,3)], neighbor is
	// [(0,3),(2,1)] — the shared position agrees, one extra tuple.
	// Total 1 + 1 = 2.
	if d.TouchedBreakpoints != 2 {
		t.Fatalf("touched breakpoints: got %d, want 2", d.TouchedBreakpoints)
	}

	// Different topology: nothing comparable.
	g := dag.New()
	s := g.AddNode("s")
	tt := g.AddNode("t")
	g.AddEdge(s, tt)
	other := MustInstance(g, []duration.Func{duration.Constant(1)})
	d = Diff(Compile(base), Compile(other))
	if d.SameTopology || d.TouchedArcs != nil {
		t.Fatalf("different topology: got %+v", d)
	}
}

// TestArcDigestsGolden pins the per-arc digest definition.  Stores persist
// digest vectors, so a silent change of definition would mis-count the
// touched arcs of every stored neighbor.
func TestArcDigestsGolden(t *testing.T) {
	inst := diamond(t, [4]string{"s", "a", "b", "t"}, [4]int{0, 1, 2, 3}, fourFns())
	got := fmt.Sprintf("%08x", Compile(inst).ArcDigests())
	const want = "[d7cf8eb1 1069d6fc c4603092 aa0180d1]"
	if got != want {
		t.Fatalf("digests %s, want %s", got, want)
	}
}

// randomTuples draws a canonical breakpoint table of 1-4 tuples.
func randomTuples(rng *rand.Rand) []duration.Tuple {
	ts := []duration.Tuple{{R: 0, T: 20 + rng.Int63n(40)}}
	for n := rng.Intn(4); n > 0 && ts[len(ts)-1].T > 1; n-- {
		last := ts[len(ts)-1]
		ts = append(ts, duration.Tuple{R: last.R + 1 + rng.Int63n(3), T: rng.Int63n(last.T)})
	}
	return ts
}

// editTuples returns a different canonical table for one arc: times
// shifted, resources shifted, or a breakpoint added or dropped.
func editTuples(rng *rand.Rand, ts []duration.Tuple) []duration.Tuple {
	out := append([]duration.Tuple(nil), ts...)
	last := out[len(out)-1]
	switch op := rng.Intn(4); {
	case op == 0: // shift every time
		d := 1 + rng.Int63n(5)
		for i := range out {
			out[i].T += d
		}
	case op == 1 && len(out) > 1: // shift the resources after the first
		d := 1 + rng.Int63n(3)
		for i := 1; i < len(out); i++ {
			out[i].R += d
		}
	case op == 2 && last.T > 0: // add a breakpoint
		out = append(out, duration.Tuple{R: last.R + 1 + rng.Int63n(3), T: rng.Int63n(last.T)})
	case len(out) > 1: // drop a breakpoint
		i := 1 + rng.Intn(len(out)-1)
		out = append(out[:i], out[i+1:]...)
	default:
		out[0].T++
	}
	return out
}

// randomLayered builds a small random single-source single-sink DAG.
func randomLayered(rng *rand.Rand) *dag.Graph {
	g := dag.New()
	s := g.AddNode("s")
	prev := []int{s}
	for l := 0; l < 2+rng.Intn(3); l++ {
		var layer []int
		for i := 0; i < 1+rng.Intn(4); i++ {
			v := g.AddNode(fmt.Sprintf("v%d_%d", l, i))
			g.AddEdge(prev[rng.Intn(len(prev))], v)
			layer = append(layer, v)
		}
		prev = layer
	}
	snk := g.AddNode("t")
	for v := 0; v < g.NumNodes(); v++ {
		if v != snk && g.OutDegree(v) == 0 {
			g.AddEdge(v, snk)
		}
	}
	return g
}

// TestDiffDigestsMatchesDiff checks the digest comparison against its
// reference, Diff, over generated same-topology pairs with random edits
// (shifted times, shifted resources, added and dropped breakpoints) and
// with "kway" functions against their equivalent "step" functions.
func TestDiffDigestsMatchesDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 300; trial++ {
		g := randomLayered(rng)
		fnsA, fnsB := make([]duration.Func, g.NumEdges()), make([]duration.Func, g.NumEdges())
		for e := range fnsA {
			var ts []duration.Tuple
			if rng.Intn(4) == 0 {
				k := duration.NewKWay(4 + rng.Int63n(60))
				fnsA[e], ts = k, k.Tuples()
			} else {
				ts = randomTuples(rng)
				fnsA[e] = duration.MustStep(ts...)
			}
			switch {
			case rng.Intn(3) == 0:
				fnsB[e] = duration.MustStep(editTuples(rng, ts)...)
			case rng.Intn(2) == 0:
				fnsB[e] = fnsA[e]
			default:
				fnsB[e] = duration.MustStep(ts...) // a kway's table as a step
			}
		}
		ca, cb := Compile(MustInstance(g, fnsA)), Compile(MustInstance(g, fnsB))
		d := Diff(ca, cb)
		if !d.SameTopology {
			t.Fatalf("trial %d: generated pair differs in topology", trial)
		}
		got, ok := DiffDigests(ca.ArcDigests(), cb.ArcDigests())
		if !ok || got != len(d.TouchedArcs) {
			t.Fatalf("trial %d: DiffDigests = (%d, %v), Diff touched %v", trial, got, ok, d.TouchedArcs)
		}
	}

	// A kway function and its step form digest alike.
	kway := duration.NewKWay(36)
	fns := fourFns()
	a := diamond(t, [4]string{"s", "a", "b", "t"}, [4]int{0, 1, 2, 3}, fns)
	fns[0] = duration.MustStep(kway.Tuples()...)
	b := diamond(t, [4]string{"s", "a", "b", "t"}, [4]int{0, 1, 2, 3}, fns)
	if n, ok := DiffDigests(Compile(a).ArcDigests(), Compile(b).ArcDigests()); !ok || n != 0 {
		t.Fatalf("kway vs equivalent step: DiffDigests = (%d, %v), want (0, true)", n, ok)
	}

	// Vectors of different lengths are not comparable.
	four := Compile(diffDiamond(duration.Constant(1), duration.Constant(2), duration.Constant(3), duration.Constant(4)))
	if _, ok := DiffDigests(four.ArcDigests(), []uint32{1, 2, 3}); ok {
		t.Fatal("DiffDigests compared vectors of different lengths")
	}
	if _, ok := DiffDigests(nil, four.ArcDigests()); ok {
		t.Fatal("DiffDigests compared an empty vector with a full one")
	}
}
