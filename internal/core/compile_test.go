package core_test

// Property tests for the compiled-instance core, in an external test
// package so they can draw instances from the scenario catalog (which
// itself imports core).

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/duration"
	"repro/internal/scenario"
)

// TestCompileDeterministic asserts that compiling the same scenario twice
// - through two independent Build calls - yields identical preprocessed
// state: hash-stable, identical CSR adjacency, topological order,
// breakpoint tables, bounds and envelopes.  This is the foundation the
// service's compiled-instance cache stands on: a canonical hash must name
// exactly one compiled form.
func TestCompileDeterministic(t *testing.T) {
	for _, spec := range scenario.DefaultCorpus() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			inst1, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			inst2, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			c1, c2 := core.Compile(inst1), core.Compile(inst2)
			if c1.Hash() != c2.Hash() {
				t.Fatalf("hash not stable across runs: %s vs %s", c1.Hash(), c2.Hash())
			}
			if !reflect.DeepEqual(c1.Topo, c2.Topo) {
				t.Fatal("topological order differs across runs")
			}
			for name, pair := range map[string][2]any{
				"OutStart": {c1.OutStart, c2.OutStart},
				"OutArcs":  {c1.OutArcs, c2.OutArcs},
				"InStart":  {c1.InStart, c2.InStart},
				"InArcs":   {c1.InArcs, c2.InArcs},
				"ArcFrom":  {c1.ArcFrom, c2.ArcFrom},
				"ArcTo":    {c1.ArcTo, c2.ArcTo},
				"Tuples":   {c1.Tuples, c2.Tuples},
				"MinDur":   {c1.MinDur, c2.MinDur},
			} {
				if !reflect.DeepEqual(pair[0], pair[1]) {
					t.Fatalf("%s differs across runs", name)
				}
			}
			if c1.MinMakespan != c2.MinMakespan || c1.MaxUsefulBudget != c2.MaxUsefulBudget ||
				c1.AssignmentSpace != c2.AssignmentSpace || c1.ExpandedArcs != c2.ExpandedArcs {
				t.Fatalf("scalar bounds differ: %+v vs %+v",
					[4]int64{c1.MinMakespan, c1.MaxUsefulBudget, c1.AssignmentSpace, c1.ExpandedArcs},
					[4]int64{c2.MinMakespan, c2.MaxUsefulBudget, c2.AssignmentSpace, c2.ExpandedArcs})
			}
			if !reflect.DeepEqual(c1.Envelopes(), c2.Envelopes()) {
				t.Fatal("envelopes differ across runs")
			}
			if c1.Class() != c2.Class() {
				t.Fatalf("class differs: %s vs %s", c1.Class(), c2.Class())
			}
		})
	}
}

// TestCompiledMatchesInstanceDerivations pins the compiled fields to the
// Instance methods they replace, and MinMakespan to the slow recursive
// longest-path reference, so the two can never drift apart.
func TestCompiledMatchesInstanceDerivations(t *testing.T) {
	for _, spec := range scenario.DefaultCorpus() {
		inst, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		c := core.Compile(inst)
		if got, want := c.Hash(), inst.CanonicalHash(); got != want {
			t.Fatalf("%s: Hash %s != CanonicalHash %s", spec.Name, got, want)
		}
		minDur := make([]int64, inst.G.NumEdges())
		for e, fn := range inst.Fns {
			ts := fn.Tuples()
			minDur[e] = ts[len(ts)-1].T
		}
		if got, want := c.MinMakespan, slowLongestPath(inst, minDur); got != want {
			t.Fatalf("%s: MinMakespan %d != slow longest path %d", spec.Name, got, want)
		}
		if got, want := c.MaxUsefulBudget, inst.MaxUsefulBudget(); got != want {
			t.Fatalf("%s: MaxUsefulBudget %d != %d", spec.Name, got, want)
		}
		g := inst.G
		for v := 0; v < g.NumNodes(); v++ {
			if int(c.OutStart[v+1]-c.OutStart[v]) != g.OutDegree(v) ||
				int(c.InStart[v+1]-c.InStart[v]) != g.InDegree(v) {
				t.Fatalf("%s: CSR degree mismatch at node %d", spec.Name, v)
			}
		}
		for e := 0; e < g.NumEdges(); e++ {
			ed := g.Edge(e)
			if int(c.ArcFrom[e]) != ed.From || int(c.ArcTo[e]) != ed.To {
				t.Fatalf("%s: CSR endpoints mismatch at arc %d", spec.Name, e)
			}
		}
	}
}

// TestCompileAssignmentSpaceSaturates pins Compile's saturating product
// of per-arc breakpoint counts on chains: exact below the cap, exactly
// SpaceSaturation at and beyond it.
func TestCompileAssignmentSpaceSaturates(t *testing.T) {
	repeat := func(count, k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = count
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		counts []int // breakpoints per chain arc, in arc order
		want   int64
	}{
		{"39 two-breakpoint arcs", repeat(2, 39), 1 << 39},
		{"40 two-breakpoint arcs", repeat(2, 40), core.SpaceSaturation},
		{"41 two-breakpoint arcs", repeat(2, 41), core.SpaceSaturation},
		{"mixed, just below the cap", append([]int{1023, 1}, repeat(2, 30)...), 1<<40 - 1<<30},
		{"mixed, just above the cap", append([]int{1025, 1}, repeat(2, 30)...), core.SpaceSaturation},
	} {
		g := dag.New()
		prev := g.AddNode("v0")
		fns := make([]duration.Func, len(tc.counts))
		for i, cnt := range tc.counts {
			next := g.AddNode("")
			g.AddEdge(prev, next)
			prev = next
			tuples := make([]duration.Tuple, cnt)
			for j := range tuples {
				tuples[j] = duration.Tuple{R: int64(j), T: int64(cnt - j)}
			}
			fns[i] = duration.MustStep(tuples...)
		}
		if got := core.Compile(core.MustInstance(g, fns)).AssignmentSpace; got != tc.want {
			t.Errorf("%s: AssignmentSpace = %d, want %d", tc.name, got, tc.want)
		}
	}
}
