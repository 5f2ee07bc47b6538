package sp_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/duration"
	"repro/internal/scenario"
	"repro/internal/solver"
	"repro/internal/sp"
)

// matchReference recognizes inst with sp.Recognize and with
// sp.ReferenceRecognize and reports whether it is series-parallel, or the
// first difference between the two answers.
func matchReference(inst *core.Instance) (bool, error) {
	got, gotArc, ok := sp.Recognize(core.Compile(inst))
	want, wantArc, wantOK := sp.ReferenceRecognize(inst)
	switch {
	case ok != wantOK:
		return ok, fmt.Errorf("series-parallel %v, reference %v", ok, wantOK)
	case !ok:
		return false, nil
	case len(gotArc) != inst.G.NumEdges() || len(wantArc) != inst.G.NumEdges():
		return true, fmt.Errorf("leaf maps of %d and %d leaves for %d arcs", len(gotArc), len(wantArc), inst.G.NumEdges())
	}
	return true, sameTree(inst, got, want, gotArc, wantArc, "root")
}

// sameTree compares two trees node for node: kind, nesting, and each
// leaf's arc and duration function, which must be the instance's own.
func sameTree(inst *core.Instance, a, b *sp.Tree, aArc, bArc map[*sp.Tree]int, path string) error {
	if a.Kind != b.Kind {
		return fmt.Errorf("%s: kind %d, reference %d", path, a.Kind, b.Kind)
	}
	if a.Kind != sp.LeafKind {
		if err := sameTree(inst, a.L, b.L, aArc, bArc, path+".L"); err != nil {
			return err
		}
		return sameTree(inst, a.R, b.R, aArc, bArc, path+".R")
	}
	ea, aok := aArc[a]
	eb, bok := bArc[b]
	if !aok || !bok || ea != eb {
		return fmt.Errorf("%s: leaf of arc %d (mapped %v), reference arc %d (mapped %v)", path, ea, aok, eb, bok)
	}
	if a.Fn != inst.Fns[ea] || b.Fn != inst.Fns[eb] {
		return fmt.Errorf("%s: leaf of arc %d does not carry the arc's duration function", path, ea)
	}
	return nil
}

// shuffled re-encodes inst with its nodes renumbered and its arcs listed
// in random order, as another client might send it.
func shuffled(rng *rand.Rand, inst *core.Instance) *core.Instance {
	perm := rng.Perm(inst.G.NumNodes())
	g := dag.New()
	for range perm {
		g.AddNode("v")
	}
	fns := make([]duration.Func, 0, inst.G.NumEdges())
	for _, e := range rng.Perm(inst.G.NumEdges()) {
		ed := inst.G.Edge(e)
		g.AddEdge(perm[ed.From], perm[ed.To])
		fns = append(fns, inst.Fns[e])
	}
	return core.MustInstance(g, fns)
}

// bridged builds a layered DAG shaped like perfbench's resolve bases: each
// node hangs off a random node of the previous layer, extra arcs join
// consecutive layers, every node without a successor feeds the sink, and
// the first two layers hold a Wheatstone bridge.
func bridged(rng *rand.Rand, layers, width, extra int) *core.Instance {
	g := dag.New()
	prev := []int{g.AddNode("s")}
	for l := 0; l < layers; l++ {
		layer := make([]int, width)
		for i := range layer {
			layer[i] = g.AddNode("v")
			p := prev[rng.Intn(len(prev))]
			if l == 1 && i < 2 {
				p = prev[0] // prev[0] feeds layer[0] and layer[1] ...
			}
			g.AddEdge(p, layer[i])
		}
		if l == 1 {
			g.AddEdge(prev[1], layer[1]) // ... and prev[1] feeds layer[1]
		}
		for i := 0; i < extra; i++ {
			g.AddEdge(prev[rng.Intn(len(prev))], layer[rng.Intn(width)])
		}
		prev = layer
	}
	t := g.AddNode("t")
	for v := 1; v < t; v++ {
		if g.OutDegree(v) == 0 {
			g.AddEdge(v, t)
		}
	}
	fns := make([]duration.Func, g.NumEdges())
	for e := range fns {
		fns[e] = fnOf(byte(rng.Intn(256)))
	}
	return core.MustInstance(g, fns)
}

// fnOf draws a small duration function from the low six bits of b: a
// constant or a two-breakpoint step.
func fnOf(b byte) duration.Func {
	t0 := int64(1 + (b>>1)%8)
	if b&1 == 0 {
		return duration.Constant(t0)
	}
	return duration.MustStep(duration.Tuple{R: 0, T: t0}, duration.Tuple{R: int64(1 + (b>>4)%3), T: t0 / 2})
}

// grow builds a DAG of at most maxArcs arcs from data, two bytes a step.
// It starts from one s→t arc; a step's first byte chooses to split an arc
// in series (a new midpoint) or in parallel (a twin), or to add a chord
// between two nodes in topological order, and sets the new arc's
// duration function; its second byte picks the arc or the chord's ends.
// Splits keep the DAG series-parallel; a chord usually breaks that.
func grow(data []byte, maxArcs int) *core.Instance {
	type arc struct {
		from, to int
		fn       duration.Func
	}
	arcs := []arc{{0, 1, duration.Constant(1)}}
	order := []int{0, 1} // the nodes in a topological order
	nodes := 2
	for k := 0; k+1 < len(data) && len(arcs) < maxArcs; k += 2 {
		op, sel := data[k], int(data[k+1])
		a := arcs[sel%len(arcs)]
		fn := fnOf(op >> 2)
		switch op % 4 {
		case 0, 1: // series: u→v becomes u→w→v, w right after u in order
			w := nodes
			nodes++
			order = slices.Insert(order, slices.Index(order, a.from)+1, w)
			arcs[sel%len(arcs)].to = w
			arcs = append(arcs, arc{w, a.to, fn})
		case 2: // parallel twin
			arcs = append(arcs, arc{a.from, a.to, fn})
		case 3: // chord order[i]→order[j], i < j
			i := sel % (len(order) - 1)
			j := i + 1 + (sel/16)%(len(order)-1-i)
			arcs = append(arcs, arc{order[i], order[j], fn})
		}
	}
	g := dag.New()
	for v := 0; v < nodes; v++ {
		g.AddNode("v")
	}
	fns := make([]duration.Func, len(arcs))
	for e, a := range arcs {
		g.AddEdge(a.from, a.to)
		fns[e] = a.fn
	}
	return core.MustInstance(g, fns)
}

// growOps draws steps for grow: each step a chord with probability
// chordRate, otherwise a series or parallel split.
func growOps(rng *rand.Rand, steps int, chordRate float64) []byte {
	data := make([]byte, 0, 2*steps)
	for k := 0; k < steps; k++ {
		op := byte(rng.Intn(256)) &^ 3
		switch {
		case rng.Float64() < chordRate:
			op |= 3
		case rng.Intn(3) == 0:
			op |= 2
		}
		data = append(data, op, byte(rng.Intn(256)))
	}
	return data
}

// TestRecognizeMatchesReference holds Recognize to the reference
// reduction on 1,200 generated instances: random decomposition trees and
// grown series-parallel DAGs, grown DAGs with chords, and layered DAGs
// with a Wheatstone bridge up to the size of perfbench's resolve bases,
// each in its generated and in a shuffled encoding.
func TestRecognizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var nSP, nOther int
	for i := 0; i < 1200; i++ {
		var inst *core.Instance
		switch i % 4 {
		case 0:
			tree := scenario.NewGen(int64(i)).SPTree(1+rng.Intn(60), 4, 30, 3)
			var err error
			if inst, _, err = tree.ToInstance(); err != nil {
				t.Fatal(err)
			}
		case 1:
			inst = grow(growOps(rng, 1+rng.Intn(60), 0), 61)
		case 2:
			inst = grow(growOps(rng, 1+rng.Intn(60), 0.05), 61)
		case 3:
			if i%100 == 3 {
				inst = bridged(rng, 40, 16, 8) // about 1,100 arcs
			} else {
				inst = bridged(rng, 2+rng.Intn(5), 2+rng.Intn(4), rng.Intn(4))
			}
		}
		if i%8 >= 4 {
			inst = shuffled(rng, inst)
		}
		isSP, err := matchReference(inst)
		if err != nil {
			t.Fatalf("instance %d (%d arcs): %v", i, inst.G.NumEdges(), err)
		}
		if isSP {
			nSP++
		} else {
			nOther++
		}
	}
	t.Logf("%d series-parallel, %d not", nSP, nOther)
	if nSP < 400 || nOther < 300 {
		t.Fatalf("%d series-parallel and %d other instances; want a mix of at least 400 and 300", nSP, nOther)
	}
}

// checkSPDP requires spdp to find exact's optimal makespan at every budget
// and exact's minimum resources at every makespan target, and every spdp
// flow to be a valid flow within its budget that realizes the makespan
// spdp reports.
func checkSPDP(t testing.TB, label string, c *core.Compiled, budgets, targets []int64) {
	t.Helper()
	solve := func(name string, o solver.Options) *solver.Report {
		t.Helper()
		rep, err := solver.SolveCompiledOptions(context.Background(), name, c, o)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, name, err)
		}
		if !rep.Complete {
			t.Fatalf("%s: %s: incomplete", label, name)
		}
		return rep
	}
	checkFlow := func(rep *solver.Report, budget int64) {
		t.Helper()
		if err := c.Inst.ValidateFlow(rep.Sol.Flow, budget); err != nil {
			t.Fatalf("%s: spdp flow %v: %v", label, rep.Sol.Flow, err)
		}
		if m, err := c.Makespan(rep.Sol.Flow); err != nil || m != rep.Sol.Makespan {
			t.Fatalf("%s: spdp flow %v realizes makespan %d (%v); spdp reported %d", label, rep.Sol.Flow, m, err, rep.Sol.Makespan)
		}
	}
	for _, b := range budgets {
		o := solver.NewOptions(solver.WithBudget(b))
		dp, ex := solve("spdp", o), solve("exact", o)
		if dp.Sol.Makespan != ex.Sol.Makespan {
			t.Fatalf("%s, budget %d: spdp makespan %d, exact %d", label, b, dp.Sol.Makespan, ex.Sol.Makespan)
		}
		checkFlow(dp, b)
	}
	for _, target := range targets {
		o := solver.NewOptions(solver.WithTarget(target))
		dp, ex := solve("spdp", o), solve("exact", o)
		if dp.Sol.Value != ex.Sol.Value {
			t.Fatalf("%s, target %d: spdp resources %d, exact %d", label, target, dp.Sol.Value, ex.Sol.Value)
		}
		if dp.Sol.Makespan > target {
			t.Fatalf("%s, target %d: spdp makespan %d", label, target, dp.Sol.Makespan)
		}
		checkFlow(dp, dp.Sol.Value)
	}
}

// TestSPDPMatchesExact checks spdp against exact branch-and-bound on 300
// random 2-11-leaf series-parallel instances: four budgets and one
// makespan target each.
func TestSPDPMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		tree := scenario.NewGen(int64(i)).SPTree(2+rng.Intn(10), 4, 30, 3)
		inst, _, err := tree.ToInstance()
		if err != nil {
			t.Fatal(err)
		}
		c := core.Compile(shuffled(rng, inst))
		budgets := make([]int64, 4)
		for k := range budgets {
			budgets[k] = rng.Int63n(c.MaxUsefulBudget + 2)
		}
		target := c.MinMakespan + rng.Int63n(c.ZeroFlowMakespan()-c.MinMakespan+1)
		checkSPDP(t, fmt.Sprintf("instance %d", i), c, budgets, []int64{target})
	}
}

// FuzzSeriesParallelOracle grows a small DAG from its input (see grow):
// Recognize must return the reference's tree, and when the DAG is
// series-parallel, spdp must match exact at one budget and one makespan
// target drawn from the first byte.
func FuzzSeriesParallelOracle(f *testing.F) {
	f.Add([]byte{3, 30, 0, 28, 0, 28, 1})        // a diamond of step arcs
	f.Add([]byte{5, 30, 0, 28, 0, 28, 1, 31, 1}) // the diamond plus a bridge
	f.Add([]byte{0x41, 28, 0, 24, 1, 20, 2})     // a chain of steps and a constant
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		inst := grow(data[1:], 10)
		isSP, err := matchReference(inst)
		if err != nil {
			t.Fatal(err)
		}
		if !isSP {
			return
		}
		c := core.Compile(inst)
		budget := int64(data[0] % 8)
		target := c.MinMakespan + int64(data[0]>>3)%(c.ZeroFlowMakespan()-c.MinMakespan+1)
		checkSPDP(t, "grown DAG", c, []int64{budget}, []int64{target})
	})
}
