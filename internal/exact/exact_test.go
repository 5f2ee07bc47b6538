package exact

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/duration"
)

// chainInstance builds a path of jobs, each with tuples {<0,high>, <r,low>}.
func chainInstance(n int, high, low, r int64) *core.Instance {
	g := dag.New()
	prev := g.AddNode("s")
	fns := make([]duration.Func, 0, n)
	for i := 0; i < n; i++ {
		v := g.AddNode("v")
		g.AddEdge(prev, v)
		fns = append(fns, duration.MustStep(
			duration.Tuple{R: 0, T: high},
			duration.Tuple{R: r, T: low},
		))
		prev = v
	}
	return core.MustInstance(g, fns)
}

func TestMinMakespanReuseOverPath(t *testing.T) {
	// Five jobs in series, each dropping from 10 to 1 with 2 units: the
	// same 2 units serve all five (reuse over the path), so budget 2
	// yields makespan 5 while budget 0 yields 50.
	inst := chainInstance(5, 10, 1, 2)
	c := core.Compile(inst)
	sol, stats, err := MinMakespan(context.Background(), c, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Complete {
		t.Fatal("search incomplete")
	}
	if sol.Makespan != 5 {
		t.Fatalf("makespan = %d; want 5", sol.Makespan)
	}
	if sol.Value > 2 {
		t.Fatalf("used %d units; budget 2", sol.Value)
	}
	sol0, _, err := MinMakespan(context.Background(), c, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol0.Makespan != 50 {
		t.Fatalf("zero-budget makespan = %d; want 50", sol0.Makespan)
	}
	// Budget 1 does not reach any breakpoint: still 50.
	sol1, _, err := MinMakespan(context.Background(), c, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol1.Makespan != 50 {
		t.Fatalf("budget-1 makespan = %d; want 50", sol1.Makespan)
	}
}

// parallelInstance builds s->t with n parallel jobs {<0,high>, <r,low>}.
func parallelInstance(n int, high, low, r int64) *core.Instance {
	g := dag.New()
	s := g.AddNode("s")
	tt := g.AddNode("t")
	fns := make([]duration.Func, 0, n)
	for i := 0; i < n; i++ {
		g.AddEdge(s, tt)
		fns = append(fns, duration.MustStep(
			duration.Tuple{R: 0, T: high},
			duration.Tuple{R: r, T: low},
		))
	}
	return core.MustInstance(g, fns)
}

func TestMinMakespanParallelNeedsSplit(t *testing.T) {
	// Three parallel jobs each needing 2 units: no reuse is possible, so
	// 6 units are needed to bring the makespan to 1.
	inst := parallelInstance(3, 9, 1, 2)
	for budget, want := range map[int64]int64{0: 9, 2: 9, 4: 9, 5: 9, 6: 1} {
		sol, stats, err := MinMakespan(context.Background(), core.Compile(inst), budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Complete {
			t.Fatal("search incomplete")
		}
		if sol.Makespan != want {
			t.Fatalf("budget %d: makespan = %d; want %d", budget, sol.Makespan, want)
		}
	}
}

func TestMinResource(t *testing.T) {
	inst := chainInstance(4, 7, 2, 3)
	c := core.Compile(inst)
	// Target 8 = 4 jobs at duration 2: needs 3 units reused along the path.
	sol, stats, err := MinResource(context.Background(), c, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Complete {
		t.Fatal("search incomplete")
	}
	if sol.Value != 3 {
		t.Fatalf("resource = %d; want 3", sol.Value)
	}
	if sol.Makespan > 8 {
		t.Fatalf("makespan = %d exceeds target 8", sol.Makespan)
	}
	// Target below the floor is impossible.
	if _, _, err := MinResource(context.Background(), c, 7, nil); err != ErrNoSolution {
		t.Fatalf("err = %v; want ErrNoSolution", err)
	}
	// A generous target needs nothing.
	sol, _, err = MinResource(context.Background(), c, 28, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value != 0 {
		t.Fatalf("resource = %d; want 0", sol.Value)
	}
}

func TestFeasible(t *testing.T) {
	inst := chainInstance(3, 5, 1, 2)
	c := core.Compile(inst)
	ok, sol, _, err := Feasible(context.Background(), c, 2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("2 units should reach makespan 3")
	}
	if sol.Makespan > 3 || sol.Value > 2 {
		t.Fatalf("witness = %+v", sol)
	}
	ok, _, _, err = Feasible(context.Background(), c, 1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("1 unit cannot reach makespan 3")
	}
	ok, _, _, err = Feasible(context.Background(), c, 100, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("makespan 2 below the floor of 3")
	}
}

func TestNodeBudgetReportsIncomplete(t *testing.T) {
	inst := chainInstance(6, 9, 1, 2)
	_, stats, err := MinMakespan(context.Background(), core.Compile(inst), 2, &Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err) // the root node itself yields a (suboptimal) solution
	}
	if stats.Complete {
		t.Fatal("want incomplete search with MaxNodes=1")
	}
}

func TestNegativeBudgetRejected(t *testing.T) {
	inst := chainInstance(2, 3, 1, 1)
	if _, _, err := MinMakespan(context.Background(), core.Compile(inst), -1, nil); err == nil {
		t.Fatal("want error for negative budget")
	}
}

// randomInstance builds a small random instance for cross-checking.
func randomInstance(rng *rand.Rand) *core.Instance {
	g := dag.New()
	s := g.AddNode("s")
	n := 2 + rng.Intn(2)
	mids := make([]int, n)
	for i := range mids {
		mids[i] = g.AddNode("m")
	}
	tt := g.AddNode("t")
	var fns []duration.Func
	addJob := func(u, v int) {
		g.AddEdge(u, v)
		tuples := []duration.Tuple{{R: 0, T: int64(1 + rng.Intn(8))}}
		if rng.Intn(4) > 0 {
			r := int64(1 + rng.Intn(3))
			tm := rng.Int63n(tuples[0].T)
			tuples = append(tuples, duration.Tuple{R: r, T: tm})
			if rng.Intn(2) == 0 && tm > 0 {
				tuples = append(tuples, duration.Tuple{R: r + 1 + int64(rng.Intn(2)), T: rng.Int63n(tm)})
			}
		}
		fn, err := duration.NewStep(tuples)
		if err != nil {
			panic(err)
		}
		fns = append(fns, fn)
	}
	for i, v := range mids {
		addJob(s, v)
		addJob(v, tt)
		if i+1 < n && rng.Intn(2) == 0 {
			addJob(mids[i], mids[i+1])
		}
	}
	return core.MustInstance(g, fns)
}

// TestMinMakespanMatchesBruteForce is the core correctness check: the
// branch-and-bound optimum equals the exhaustive path-multiset optimum on
// random tiny instances.
func TestMinMakespanMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		inst := randomInstance(rng)
		budget := int64(rng.Intn(5))
		brute, ok := BruteForceMinMakespan(inst, budget, 24)
		if !ok {
			continue
		}
		checked++
		sol, stats, err := MinMakespan(context.Background(), core.Compile(inst), budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Complete {
			t.Fatalf("trial %d: incomplete", trial)
		}
		if sol.Makespan != brute.Makespan {
			t.Fatalf("trial %d (budget %d): B&B makespan %d != brute force %d",
				trial, budget, sol.Makespan, brute.Makespan)
		}
		if err := inst.ValidateFlow(sol.Flow, budget); err != nil {
			t.Fatalf("trial %d: invalid flow: %v", trial, err)
		}
	}
	if checked < 20 {
		t.Fatalf("only %d trials were checked; widen the path cap", checked)
	}
}

// TestMinResourceMatchesBruteForce does the same for the other objective.
func TestMinResourceMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	checked := 0
	for trial := 0; trial < 40; trial++ {
		inst := randomInstance(rng)
		c := core.Compile(inst)
		lo := c.MinMakespan
		hi := c.ZeroFlowMakespan()
		if hi == lo {
			continue
		}
		target := lo + rng.Int63n(hi-lo+1)
		brute, ok := BruteForceMinResource(inst, target, 6, 24)
		if !ok || brute.Makespan < 0 {
			continue
		}
		checked++
		sol, stats, err := MinResource(context.Background(), c, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Complete {
			t.Fatalf("trial %d: incomplete", trial)
		}
		if sol.Value != brute.Value {
			t.Fatalf("trial %d (target %d): B&B resource %d != brute force %d",
				trial, target, sol.Value, brute.Value)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d trials were checked", checked)
	}
}

// TestMakespanMonotoneInBudget checks that the exact optimum never worsens
// with more budget (a model invariant the searcher must respect).
func TestMakespanMonotoneInBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		inst := randomInstance(rng)
		prev := int64(-1)
		for b := int64(0); b <= 5; b++ {
			sol, stats, err := MinMakespan(context.Background(), core.Compile(inst), b, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Complete {
				t.Fatal("incomplete")
			}
			if prev >= 0 && sol.Makespan > prev {
				t.Fatalf("trial %d: makespan rose from %d to %d at budget %d",
					trial, prev, sol.Makespan, b)
			}
			prev = sol.Makespan
		}
	}
}
