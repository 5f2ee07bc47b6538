package relax

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/duration"
)

// warmRelaxInstance builds a layered instance large enough that the
// Frank-Wolfe loop runs real iterations.
func warmRelaxInstance(t *testing.T) *core.Instance {
	t.Helper()
	g := dag.New()
	const width, layers = 3, 4
	s := g.AddNode("s")
	prev := []int{s}
	id := 0
	for l := 0; l < layers; l++ {
		var cur []int
		for w := 0; w < width; w++ {
			cur = append(cur, g.AddNode("n"+string(rune('a'+id))))
			id++
		}
		for _, u := range prev {
			for _, v := range cur {
				g.AddEdge(u, v)
			}
		}
		prev = cur
	}
	snk := g.AddNode("t")
	for _, u := range prev {
		g.AddEdge(u, snk)
	}
	fns := make([]duration.Func, g.NumEdges())
	for e := range fns {
		r := int64(1 + e%3)
		fns[e] = duration.MustStep(
			duration.Tuple{R: 0, T: int64(20 + e%7)},
			duration.Tuple{R: r, T: int64(5 + e%5)},
		)
	}
	inst, err := core.NewInstance(g, fns)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestWarmStartSoundAndDeterministic checks the relax warm-start
// contract: a warm-started solve still reports a certified lower bound
// consistent with the cold solve's achieved value (both bound the same
// optimum), is byte-deterministic across identical warm runs, and ignores
// invalid seeds.
func TestWarmStartSoundAndDeterministic(t *testing.T) {
	inst := warmRelaxInstance(t)
	c := core.Compile(inst)
	s := NewSolver(c)
	ctx := context.Background()
	const budget = 6

	cold, err := s.MinMakespan(ctx, budget, Options{})
	if err != nil {
		t.Fatal(err)
	}

	warmOpts := Options{WarmFlow: cold.Sol.Flow}
	warm1, err := NewSolver(c).MinMakespan(ctx, budget, warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	warm2, err := NewSolver(c).MinMakespan(ctx, budget, warmOpts)
	if err != nil {
		t.Fatal(err)
	}

	// Determinism: identical inputs (instance, options, seed) must give
	// identical results, iterate for iterate.
	if warm1.RelaxValue != warm2.RelaxValue || warm1.LowerBound != warm2.LowerBound || warm1.Iters != warm2.Iters {
		t.Fatalf("warm runs diverged: %+v vs %+v", warm1, warm2)
	}
	for e := range warm1.Sol.Flow {
		if warm1.Sol.Flow[e] != warm2.Sol.Flow[e] {
			t.Fatalf("warm runs rounded different flows at arc %d", e)
		}
	}

	// Soundness: both lower bounds certify the same relaxation optimum,
	// so each must sit at or below the other's achieved relaxation value
	// (and below the integral makespans, which the relaxation minorizes).
	if warm1.LowerBound > cold.RelaxValue+1e-6 {
		t.Fatalf("warm bound %f exceeds cold relaxation value %f", warm1.LowerBound, cold.RelaxValue)
	}
	if cold.LowerBound > warm1.RelaxValue+1e-6 {
		t.Fatalf("cold bound %f exceeds warm relaxation value %f", cold.LowerBound, warm1.RelaxValue)
	}
	if warm1.LowerBound > float64(cold.Sol.Makespan)+1e-6 {
		t.Fatalf("warm bound %f exceeds cold integral makespan %d", warm1.LowerBound, cold.Sol.Makespan)
	}
	if warm1.Sol.Value > budget {
		t.Fatalf("warm rounded solution overspends: %d > %d", warm1.Sol.Value, budget)
	}

	// Invalid seeds are ignored: the result must equal the cold solve.
	for name, seed := range map[string][]int64{
		"wrong length":  {1, 2},
		"negative":      append([]int64{-1}, make([]int64, inst.G.NumEdges()-1)...),
		"not conserved": append([]int64{5}, make([]int64, inst.G.NumEdges()-1)...),
	} {
		got, err := NewSolver(c).MinMakespan(ctx, budget, Options{WarmFlow: seed})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.RelaxValue != cold.RelaxValue || got.Iters != cold.Iters {
			t.Fatalf("%s: bad seed changed the solve: %+v vs cold %+v", name, got, cold)
		}
	}
}

// TestWarmStartScalesOverspentSeed seeds with a flow worth more than the
// budget and checks the scaled seed stays feasible and the solve sound.
func TestWarmStartScalesOverspentSeed(t *testing.T) {
	inst := warmRelaxInstance(t)
	c := core.Compile(inst)
	s := NewSolver(c)
	ctx := context.Background()

	// Solve generously, then re-solve at a tight budget seeded with the
	// generous (overspending) flow.
	rich, err := s.MinMakespan(ctx, 20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := NewSolver(c).MinMakespan(ctx, 3, Options{WarmFlow: rich.Sol.Flow})
	if err != nil {
		t.Fatal(err)
	}
	coldTight, err := NewSolver(c).MinMakespan(ctx, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Sol.Value > 3*2 { // B/(1-alpha) with alpha=0.5
		t.Fatalf("warm tight solve overspends the bi-criteria bound: %d", tight.Sol.Value)
	}
	// Both certify lower bounds on the SAME budget-3 optimum.
	if tight.LowerBound > coldTight.RelaxValue+1e-6 {
		t.Fatalf("warm bound %f exceeds cold relaxation value %f", tight.LowerBound, coldTight.RelaxValue)
	}
}
