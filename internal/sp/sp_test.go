package sp

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/duration"
	"repro/internal/exact"
)

func step(high, low, r int64) duration.Func {
	return duration.MustStep(duration.Tuple{R: 0, T: high}, duration.Tuple{R: r, T: low})
}

func TestValidate(t *testing.T) {
	if err := Leaf(step(5, 1, 2)).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (&Tree{Kind: LeafKind}).Validate(); err == nil {
		t.Fatal("want error for nil Fn")
	}
	if err := (&Tree{Kind: SeriesKind, L: Leaf(step(1, 0, 1))}).Validate(); err == nil {
		t.Fatal("want error for missing child")
	}
	if err := (&Tree{Kind: Kind(9)}).Validate(); err == nil {
		t.Fatal("want error for bad kind")
	}
}

func TestCounts(t *testing.T) {
	tr := Series(Leaf(step(5, 1, 2)), Parallel(Leaf(step(4, 0, 1)), Leaf(step(3, 1, 1))))
	if tr.Leaves() != 3 {
		t.Fatalf("Leaves = %d; want 3", tr.Leaves())
	}
	if tr.Nodes() != 5 {
		t.Fatalf("Nodes = %d; want 5", tr.Nodes())
	}
}

func TestSeriesSharesBudget(t *testing.T) {
	// Two jobs in series, each {<0,10>, <2,1>}: with 2 units both drop
	// (reuse over a path), makespan 2.
	tr := Series(Leaf(step(10, 1, 2)), Leaf(step(10, 1, 2)))
	tb, err := Solve(context.Background(), tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tb.Makespan(2)
	if err != nil {
		t.Fatal(err)
	}
	if m != 2 {
		t.Fatalf("makespan = %d; want 2", m)
	}
	m, _ = tb.Makespan(1)
	if m != 20 {
		t.Fatalf("makespan(1) = %d; want 20", m)
	}
}

func TestParallelSplitsBudget(t *testing.T) {
	// Two jobs in parallel, each {<0,10>, <2,1>}: 2 units fix only one
	// branch (makespan 10); 4 fix both (makespan 1).
	tr := Parallel(Leaf(step(10, 1, 2)), Leaf(step(10, 1, 2)))
	tb, err := Solve(context.Background(), tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	for budget, want := range map[int64]int64{0: 10, 2: 10, 3: 10, 4: 1} {
		m, err := tb.Makespan(budget)
		if err != nil {
			t.Fatal(err)
		}
		if m != want {
			t.Fatalf("makespan(%d) = %d; want %d", budget, m, want)
		}
	}
}

func TestMinResourceFromTables(t *testing.T) {
	tr := Series(Leaf(step(10, 1, 2)), Leaf(step(10, 1, 2)))
	tb, err := Solve(context.Background(), tr, 5)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := tb.MinResource(2)
	if !ok || r != 2 {
		t.Fatalf("MinResource(2) = %d, %v; want 2, true", r, ok)
	}
	if _, ok := tb.MinResource(1); ok {
		t.Fatal("makespan 1 should be unreachable")
	}
	r, ok = tb.MinResource(20)
	if !ok || r != 0 {
		t.Fatalf("MinResource(20) = %d, %v; want 0, true", r, ok)
	}
}

func TestAllocationAndFlow(t *testing.T) {
	left := Leaf(step(10, 1, 2))
	right := Leaf(step(8, 2, 3))
	tr := Parallel(Series(left, Leaf(step(6, 1, 2))), right)
	tb, err := Solve(context.Background(), tr, 5)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := tb.Allocation(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc) != 3 {
		t.Fatalf("allocation covers %d leaves; want 3", len(alloc))
	}
	inst, leafArc, err := tr.ToInstance()
	if err != nil {
		t.Fatal(err)
	}
	f, err := tb.Flow(inst, leafArc, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.ValidateFlow(f, 5); err != nil {
		t.Fatalf("flow invalid: %v", err)
	}
	want, _ := tb.Makespan(5)
	got, err := core.Compile(inst).Makespan(f)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("instance makespan %d != table %d", got, want)
	}
}

func TestToInstanceShape(t *testing.T) {
	tr := Parallel(Series(Leaf(step(1, 0, 1)), Leaf(step(2, 0, 1))), Leaf(step(3, 0, 1)))
	inst, leafArc, err := tr.ToInstance()
	if err != nil {
		t.Fatal(err)
	}
	c := core.Compile(inst)
	if inst.G.NumEdges() != 3 || len(leafArc) != 3 {
		t.Fatalf("edges = %d leafArc = %d", inst.G.NumEdges(), len(leafArc))
	}
	if c.ZeroFlowMakespan() != 3 {
		t.Fatalf("zero makespan = %d; want 3", c.ZeroFlowMakespan())
	}
}

// randomTree builds a random decomposition tree with the given number of
// leaves.
func randomTree(rng *rand.Rand, leaves int) *Tree {
	if leaves == 1 {
		high := int64(1 + rng.Intn(8))
		if rng.Intn(4) == 0 {
			return Leaf(duration.Constant(high))
		}
		return Leaf(step(high, rng.Int63n(high), int64(1+rng.Intn(3))))
	}
	split := 1 + rng.Intn(leaves-1)
	l, r := randomTree(rng, split), randomTree(rng, leaves-split)
	if rng.Intn(2) == 0 {
		return Series(l, r)
	}
	return Parallel(l, r)
}

// TestDPMatchesExactSolver is the key cross-check of Section 3.4: the
// pseudo-polynomial DP must agree with the general branch-and-bound
// optimum on random series-parallel instances, for both objectives.
func TestDPMatchesExactSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		tr := randomTree(rng, 2+rng.Intn(4))
		budget := int64(rng.Intn(5))
		tb, err := Solve(context.Background(), tr, budget)
		if err != nil {
			t.Fatal(err)
		}
		inst, leafArc, err := tr.ToInstance()
		if err != nil {
			t.Fatal(err)
		}
		c := core.Compile(inst)
		dpVal, _ := tb.Makespan(budget)
		sol, stats, err := exact.MinMakespan(context.Background(), c, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Complete {
			t.Fatal("exact incomplete")
		}
		if dpVal != sol.Makespan {
			t.Fatalf("trial %d (budget %d): DP %d != exact %d", trial, budget, dpVal, sol.Makespan)
		}
		// Also check the DP's own witness flow achieves its value.
		f, err := tb.Flow(inst, leafArc, budget)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.ValidateFlow(f, budget); err != nil {
			t.Fatal(err)
		}
		m, _ := c.Makespan(f)
		if m != dpVal {
			t.Fatalf("trial %d: witness makespan %d != DP %d", trial, m, dpVal)
		}

		// MinResource direction.
		target := tb.table[tr][budget]
		wantR, ok := tb.MinResource(target)
		if !ok {
			t.Fatal("table says target reachable but MinResource disagrees")
		}
		rsol, rstats, err := exact.MinResource(context.Background(), c, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rstats.Complete {
			t.Fatal("exact incomplete")
		}
		if rsol.Value != wantR {
			t.Fatalf("trial %d (target %d): DP resource %d != exact %d",
				trial, target, wantR, rsol.Value)
		}
	}
}

func TestRecognizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 30; trial++ {
		tr := randomTree(rng, 2+rng.Intn(6))
		inst, _, err := tr.ToInstance()
		if err != nil {
			t.Fatal(err)
		}
		got, _, ok := Recognize(core.Compile(inst))
		if !ok {
			t.Fatalf("trial %d: SP instance not recognized", trial)
		}
		// The recovered tree must denote an equivalent instance: same
		// number of leaves and identical DP optima across budgets.
		if got.Leaves() != tr.Leaves() {
			t.Fatalf("trial %d: leaves %d != %d", trial, got.Leaves(), tr.Leaves())
		}
		a, err := Solve(context.Background(), tr, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Solve(context.Background(), got, 4)
		if err != nil {
			t.Fatal(err)
		}
		for l := int64(0); l <= 4; l++ {
			ma, _ := a.Makespan(l)
			mb, _ := b.Makespan(l)
			if ma != mb {
				t.Fatalf("trial %d: recognized tree differs at budget %d: %d vs %d", trial, l, ma, mb)
			}
		}
	}
}

func TestRecognizeRejectsNonSP(t *testing.T) {
	// The "N graph" (s->a, s->b, a->b hmm) - use the classic
	// non-SP pattern: s->a, s->b, a->t, b->t, a->b.
	g := dagNew()
	s := g.AddNode("s")
	a := g.AddNode("a")
	b := g.AddNode("b")
	tt := g.AddNode("t")
	g.AddEdge(s, a)
	g.AddEdge(s, b)
	g.AddEdge(a, tt)
	g.AddEdge(b, tt)
	g.AddEdge(a, b)
	inst := mustInstance(g, 5)
	if _, _, ok := Recognize(core.Compile(inst)); ok {
		t.Fatal("the N-graph must not be recognized as series-parallel")
	}
}

func TestSolveErrors(t *testing.T) {
	if _, err := Solve(context.Background(), Leaf(step(3, 1, 1)), -1); err == nil {
		t.Fatal("want error for negative budget")
	}
	if _, err := Solve(context.Background(), &Tree{Kind: LeafKind}, 1); err == nil {
		t.Fatal("want error for invalid tree")
	}
	// A request's budget must not size the tables: 1<<50 columns per row
	// is refused before anything is allocated.
	if _, err := Solve(context.Background(), Series(Leaf(step(3, 1, 1)), Leaf(step(3, 1, 1))), 1<<50); err == nil {
		t.Fatal("want error for a budget past the table cap")
	}
	tb, err := Solve(context.Background(), Leaf(step(3, 1, 1)), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Makespan(3); err == nil {
		t.Fatal("want error for budget beyond table")
	}
	if _, err := tb.Allocation(-1); err == nil {
		t.Fatal("want error for negative allocation budget")
	}
}
