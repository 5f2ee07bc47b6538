package rtt

import (
	"context"
	"testing"

	"repro/internal/exact"
	"repro/internal/scenario"
)

// TestFacadeEndToEnd exercises the public API surface end to end: build,
// solve exactly and approximately through the registry, simulate, and
// round-trip the series-parallel machinery.
func TestFacadeEndToEnd(t *testing.T) {
	ctx := context.Background()
	g := NewGraph()
	s := g.AddNode("s")
	mid := g.AddNode("m")
	snk := g.AddNode("t")
	g.AddEdge(s, mid)
	g.AddEdge(mid, snk)
	step, err := NewStep([]Tuple{{R: 0, T: 8}, {R: 2, T: 2}})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(g, []DurationFunc{step, NewKWay(9)})
	if err != nil {
		t.Fatal(err)
	}
	exactRep, err := Solve(ctx, "exact", inst, WithBudget(3))
	if err != nil {
		t.Fatal(err)
	}
	if !exactRep.Complete {
		t.Fatal("incomplete")
	}
	approxRep, err := Solve(ctx, "bicriteria", inst, WithBudget(3), WithAlpha(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if approxRep.Sol.Makespan < exactRep.Sol.Makespan {
		t.Fatalf("approximation %d beat the optimum %d", approxRep.Sol.Makespan, exactRep.Sol.Makespan)
	}

	tree := SPSeries(SPLeaf(step), SPLeaf(NewRecursiveBinary(16)))
	tables, err := SPSolve(tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tables.Makespan(4); err != nil {
		t.Fatal(err)
	}
	spInst, _, err := tree.ToInstance()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := SPRecognize(spInst); !ok {
		t.Fatal("series instance not recognized")
	}

	simRes, err := Simulate(SingleCell(100), 0)
	if err != nil {
		t.Fatal(err)
	}
	if simRes.FinishTime != 100 {
		t.Fatalf("simulated %d; want 100", simRes.FinishTime)
	}

	vi := Figure4()
	m, err := vi.Makespan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m != 11 {
		t.Fatalf("Figure 4 makespan %d", m)
	}

	gen := scenario.NewGen(1)
	kinst := gen.KWayInstance(2, 2, 1, 20)
	if _, err := Solve(ctx, "kway5", kinst, WithBudget(3)); err != nil {
		t.Fatal(err)
	}
	binst := gen.BinaryInstance(2, 2, 1, 20)
	if _, err := Solve(ctx, "binary4", binst, WithBudget(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(ctx, "binarybi", binst, WithBudget(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(ctx, "bicriteria-resource", inst, WithTarget(20), WithAlpha(0.5)); err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(ctx, "exact", inst, WithTarget(20)); err != nil {
		t.Fatal(err)
	}
	if ok, _, _, err := exact.Feasible(ctx, Compile(inst), 100, 100, nil); err != nil || !ok {
		t.Fatalf("feasible = %v, %v", ok, err)
	}
}
