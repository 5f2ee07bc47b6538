package exact

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/duration"
)

// warmInstance builds a two-path instance with enough step arcs that the
// budget-constrained search has real work to do.
func warmInstance(t *testing.T, bump int64) *core.Instance {
	t.Helper()
	g := dag.New()
	s := g.AddNode("s")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	snk := g.AddNode("t")
	g.AddEdge(s, a)
	g.AddEdge(a, b)
	g.AddEdge(b, snk)
	g.AddEdge(s, c)
	g.AddEdge(c, snk)
	g.AddEdge(a, c)
	step := func(t0, t1, r int64) duration.Func {
		return duration.MustStep(duration.Tuple{R: 0, T: t0}, duration.Tuple{R: r, T: t1})
	}
	fns := []duration.Func{
		step(10, 4, 2),
		step(9, 3, 2),
		step(8+bump, 2, 3),
		step(12, 5, 2),
		step(11, 6, 2),
		duration.Constant(1),
	}
	inst, err := core.NewInstance(g, fns)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestIncumbentSeedingPreservesOptimum checks the warm-start soundness
// contract in both modes: a seeded search returns the same optimal value
// as a cold one, expands no more nodes, and a warm-SELF search (seeded
// with the instance's own optimal flow) returns that very flow.
func TestIncumbentSeedingPreservesOptimum(t *testing.T) {
	inst := warmInstance(t, 0)
	c := core.Compile(inst)
	const budget = 5

	cold, coldStats, err := MinMakespan(nil, c, budget, &Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !coldStats.Complete {
		t.Fatal("cold search did not complete")
	}

	// Warm-self: seed with the cold optimum's own flow.
	warm, warmStats, err := MinMakespan(nil, c, budget,
		&Options{Parallelism: 1, Incumbent: cold.Flow})
	if err != nil {
		t.Fatal(err)
	}
	if !warmStats.Complete {
		t.Fatal("warm search did not complete")
	}
	if warm.Makespan != cold.Makespan || warm.Value != cold.Value {
		t.Fatalf("warm optimum (%d,%d) != cold (%d,%d)", warm.Makespan, warm.Value, cold.Makespan, cold.Value)
	}
	for e := range cold.Flow {
		if warm.Flow[e] != cold.Flow[e] {
			t.Fatalf("warm-self witness differs on arc %d: %d vs %d", e, warm.Flow[e], cold.Flow[e])
		}
	}
	if warmStats.Nodes > coldStats.Nodes {
		t.Fatalf("warm search expanded %d nodes, cold only %d", warmStats.Nodes, coldStats.Nodes)
	}

	// Warm-neighbor: seed the perturbed instance with the base optimum.
	ninst := warmInstance(t, 3)
	nc := core.Compile(ninst)
	ncold, ncoldStats, err := MinMakespan(nil, nc, budget, &Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	nwarm, nwarmStats, err := MinMakespan(nil, nc, budget,
		&Options{Parallelism: 1, Incumbent: cold.Flow})
	if err != nil {
		t.Fatal(err)
	}
	if nwarm.Makespan != ncold.Makespan {
		t.Fatalf("neighbor warm optimum %d != cold %d", nwarm.Makespan, ncold.Makespan)
	}
	if nwarmStats.Nodes > ncoldStats.Nodes {
		t.Fatalf("neighbor warm expanded %d nodes, cold only %d", nwarmStats.Nodes, ncoldStats.Nodes)
	}

	// Min-resource mode, warm-self.
	target := cold.Makespan
	rcold, _, err := MinResource(nil, c, target, &Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	rwarm, _, err := MinResource(nil, c, target,
		&Options{Parallelism: 1, Incumbent: rcold.Flow})
	if err != nil {
		t.Fatal(err)
	}
	if rwarm.Value != rcold.Value {
		t.Fatalf("min-resource warm optimum %d != cold %d", rwarm.Value, rcold.Value)
	}
	for e := range rcold.Flow {
		if rwarm.Flow[e] != rcold.Flow[e] {
			t.Fatalf("min-resource warm-self witness differs on arc %d", e)
		}
	}
}

// TestIncumbentSeedingIgnoresBadSeeds feeds every flavor of invalid hint
// and checks the search is unaffected.
func TestIncumbentSeedingIgnoresBadSeeds(t *testing.T) {
	inst := warmInstance(t, 0)
	c := core.Compile(inst)
	const budget = 5
	cold, _, err := MinMakespan(nil, c, budget, &Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	bads := map[string][]int64{
		"wrong length":   {1, 2, 3},
		"negative":       {-1, 0, 0, 0, 0, 0},
		"not conserved":  {3, 1, 1, 0, 0, 0},
		"over budget":    {4, 4, 4, 4, 4, 0},
		"nil (no seed)":  nil,
		"all zero value": {0, 0, 0, 0, 0, 0},
	}
	for name, seed := range bads {
		sol, stats, err := MinMakespan(nil, c, budget,
			&Options{Parallelism: 1, Incumbent: seed})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !stats.Complete || sol.Makespan != cold.Makespan {
			t.Fatalf("%s: got makespan %d (complete=%v), want %d", name, sol.Makespan, stats.Complete, cold.Makespan)
		}
	}
	// The zero flow IS conserved with value 0 <= budget; it seeds the
	// slowest makespan, which is sound (just useless) — covered above.

	// An infeasible-for-target seed in resource mode is ignored too.
	if _, _, err := MinResource(nil, c, c.MinMakespan,
		&Options{Parallelism: 1, Incumbent: []int64{0, 0, 0, 0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
}

// TestFlowPoolAcrossSolves runs two solves on topology-identical
// instances through the package's flow pool and checks the second reuses
// the first's network without changing the optimum.  Earlier tests may
// have filled the pool with other topologies; the pool must still keep
// the newest network.
func TestFlowPoolAcrossSolves(t *testing.T) {
	base := core.Compile(warmInstance(t, 0))
	neighbor := core.Compile(warmInstance(t, 3))
	const budget = 5

	s1, _, err := MinMakespan(nil, base, budget, &Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	before, _, _ := flowPool.Stats()
	s2, _, err := MinMakespan(nil, neighbor, budget, &Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := flowPool.Stats(); hits == before {
		t.Fatal("second solve did not reuse the pooled network")
	}
	for _, tc := range []struct {
		c   *core.Compiled
		got int64
	}{{base, s1.Makespan}, {neighbor, s2.Makespan}} {
		ref, ok := BruteForceAssignmentsMinMakespan(tc.c.Inst, budget, 1<<20)
		if !ok {
			t.Fatal("brute force found no solution")
		}
		if tc.got != ref.Makespan {
			t.Fatalf("pooled optimum %d != brute force %d", tc.got, ref.Makespan)
		}
	}
}
