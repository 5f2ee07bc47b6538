package exact

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/duration"
	"repro/internal/scenario"
)

// tinyInstance builds a random instance with at most 6 arcs whose flows
// overlap heavily (chains hanging off a diamond), the shape on which the
// min-flow overshoots lower bounds - the regime where the subtree prune's
// bound stops lower-bounding realized descendants and only the coverage
// argument keeps the search exact.
func tinyInstance(rng *rand.Rand) *core.Instance {
	g := dag.New()
	s := g.AddNode("s")
	mid := g.AddNode("m")
	t := g.AddNode("t")
	var fns []duration.Func
	addJob := func(u, v int) {
		g.AddEdge(u, v)
		t0 := int64(1 + rng.Intn(9))
		tuples := []duration.Tuple{{R: 0, T: t0}}
		steps := rng.Intn(3)
		for i := 0; i < steps; i++ {
			last := tuples[len(tuples)-1]
			if last.T == 0 {
				break
			}
			tuples = append(tuples, duration.Tuple{
				R: last.R + 1 + int64(rng.Intn(2)),
				T: rng.Int63n(last.T),
			})
		}
		fn, err := duration.NewStep(tuples)
		if err != nil {
			panic(err)
		}
		fns = append(fns, fn)
	}
	// s -> m -> t spine plus up to four extra arcs in {s->m, m->t, s->t}.
	addJob(s, mid)
	addJob(mid, t)
	extra := 1 + rng.Intn(4)
	for i := 0; i < extra; i++ {
		switch rng.Intn(3) {
		case 0:
			addJob(s, mid)
		case 1:
			addJob(mid, t)
		default:
			addJob(s, t)
		}
	}
	return core.MustInstance(g, fns)
}

// TestMinMakespanMatchesAssignmentEnumeration locks the audited subtree
// prune (see the coverage argument in visit): on random <= 6-arc instances
// the branch-and-bound optimum must equal the exhaustive minimum over ALL
// tuple assignments of the realized min-flow makespan.  The oracle shares
// nothing with the searcher's branching or pruning, so any future prune
// that silently over-prunes (the bound genuinely does not lower-bound
// realized descendants; only the coverage argument saves it) fails here.
func TestMinMakespanMatchesAssignmentEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	checked := 0
	for trial := 0; trial < 400; trial++ {
		inst := tinyInstance(rng)
		budget := int64(rng.Intn(6))
		brute, ok := BruteForceAssignmentsMinMakespan(inst, budget, 1<<12)
		if !ok || brute.Makespan < 0 {
			continue
		}
		checked++
		sol, stats, err := MinMakespan(context.Background(), core.Compile(inst), budget, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !stats.Complete {
			t.Fatalf("trial %d: incomplete", trial)
		}
		if sol.Makespan != brute.Makespan {
			t.Fatalf("trial %d (budget %d): B&B makespan %d != assignment enumeration %d\ninstance: %v",
				trial, budget, sol.Makespan, brute.Makespan, inst.Fns)
		}
	}
	if checked < 200 {
		t.Fatalf("only %d trials were checked; widen the assignment cap", checked)
	}
}

// TestParallelDeterministicOptimum asserts the core tentpole contract: the
// optimum value of a complete search is identical across worker counts
// 1..8, in both objectives.
func TestParallelDeterministicOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 25; trial++ {
		inst := randomInstance(rng)
		c := core.Compile(inst)
		budget := int64(rng.Intn(6))
		target := c.MinMakespan + rng.Int63n(1+c.ZeroFlowMakespan()-c.MinMakespan)

		wantMk, wantRes := int64(-1), int64(-1)
		for par := 1; par <= 8; par++ {
			opts := &Options{Parallelism: par}
			sol, stats, err := MinMakespan(context.Background(), c, budget, opts)
			if err != nil {
				t.Fatalf("trial %d par %d: %v", trial, par, err)
			}
			if !stats.Complete {
				t.Fatalf("trial %d par %d: incomplete", trial, par)
			}
			if err := inst.ValidateFlow(sol.Flow, budget); err != nil {
				t.Fatalf("trial %d par %d: invalid flow: %v", trial, par, err)
			}
			if wantMk < 0 {
				wantMk = sol.Makespan
			} else if sol.Makespan != wantMk {
				t.Fatalf("trial %d: makespan %d at parallelism %d != %d at parallelism 1",
					trial, sol.Makespan, par, wantMk)
			}

			rsol, rstats, err := MinResource(context.Background(), c, target, opts)
			if err != nil {
				t.Fatalf("trial %d par %d (target %d): %v", trial, par, target, err)
			}
			if !rstats.Complete {
				t.Fatalf("trial %d par %d: min-resource incomplete", trial, par)
			}
			if rsol.Makespan > target {
				t.Fatalf("trial %d par %d: makespan %d exceeds target %d", trial, par, rsol.Makespan, target)
			}
			if wantRes < 0 {
				wantRes = rsol.Value
			} else if rsol.Value != wantRes {
				t.Fatalf("trial %d: resource %d at parallelism %d != %d at parallelism 1",
					trial, rsol.Value, par, wantRes)
			}
		}
	}
}

// TestParallelFeasibleAgrees pins the decision variant across worker
// counts.
func TestParallelFeasibleAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 20; trial++ {
		inst := randomInstance(rng)
		c := core.Compile(inst)
		budget := int64(rng.Intn(5))
		target := c.MinMakespan + rng.Int63n(1+c.ZeroFlowMakespan()-c.MinMakespan)
		var want bool
		for par := 1; par <= 4; par++ {
			ok, sol, _, err := Feasible(context.Background(), c, budget, target, &Options{Parallelism: par})
			if err != nil {
				t.Fatalf("trial %d par %d: %v", trial, par, err)
			}
			if ok && (sol.Value > budget || sol.Makespan > target) {
				t.Fatalf("trial %d par %d: witness (%d, %d) violates (%d, %d)",
					trial, par, sol.Value, sol.Makespan, budget, target)
			}
			if par == 1 {
				want = ok
			} else if ok != want {
				t.Fatalf("trial %d: feasible=%v at parallelism %d, %v at parallelism 1", trial, ok, par, want)
			}
		}
	}
}

// TestFeasibleInterruptedReturnsError locks the bugfix: an interrupted
// decision run must return the context error, not a silent "infeasible".
func TestFeasibleInterruptedReturnsError(t *testing.T) {
	inst := chainInstance(5, 10, 1, 2)
	c := core.Compile(inst)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ok, _, stats, err := Feasible(ctx, c, 2, 5, nil)
	if ok {
		t.Fatal("canceled run must not claim feasibility")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled", err)
	}
	if stats.Interrupted == nil {
		t.Fatal("Stats.Interrupted must carry the context error")
	}
	// The same budget/target pair is genuinely feasible when allowed to run.
	ok, _, _, err = Feasible(context.Background(), c, 2, 5, nil)
	if err != nil || !ok {
		t.Fatalf("uninterrupted run: ok=%v err=%v; want feasible", ok, err)
	}
}

// TestFeasibleTruncatedReturnsError: a node-capped run that proved nothing
// must say so instead of reporting "infeasible".
func TestFeasibleTruncatedReturnsError(t *testing.T) {
	inst := chainInstance(5, 10, 1, 2)
	ok, _, stats, err := Feasible(context.Background(), core.Compile(inst), 2, 5, &Options{MaxNodes: 1})
	if ok {
		t.Fatal("root alone cannot prove this budget/target pair feasible")
	}
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v; want ErrTruncated", err)
	}
	if stats.Complete {
		t.Fatal("truncated run must report Complete=false")
	}
}

// TestParallelInterruption checks that a deadline stops the pool promptly
// and still hands back a usable partial result.
func TestParallelInterruption(t *testing.T) {
	// A 5x5 layered k-way instance takes far longer than the deadline.
	inst := hardInstance()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	sol, stats, err := MinMakespan(ctx, core.Compile(inst), 40, &Options{Parallelism: 4})
	elapsed := time.Since(start)
	if elapsed > 10*time.Second {
		t.Fatalf("parallel search ran %v past a 100ms deadline", elapsed)
	}
	if !errors.Is(stats.Interrupted, context.DeadlineExceeded) {
		t.Fatalf("Stats.Interrupted = %v; want context.DeadlineExceeded", stats.Interrupted)
	}
	if stats.Complete {
		t.Fatal("interrupted search must report Complete=false")
	}
	if err == nil {
		// A partial solution was found before the deadline; it must be valid.
		if verr := inst.ValidateFlow(sol.Flow, 40); verr != nil {
			t.Fatalf("partial solution invalid: %v", verr)
		}
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v; want context.DeadlineExceeded or a partial solution", err)
	}
}

// TestParallelWorkerPanicReraised injects a panic into one search worker
// through Progress, which runs under the incumbent lock on whichever worker
// improved.  The panic must neither kill the process from the worker's
// goroutine nor leave the lock held and the gang hung: it comes back out of
// MinMakespan on the caller's goroutine once the gang has joined.
func TestParallelWorkerPanicReraised(t *testing.T) {
	c := core.Compile(hardInstance())
	var fired atomic.Bool
	opts := &Options{Parallelism: 8, MaxNodes: 1 << 16, Progress: func(_, _ float64, nodes int64) {
		// Past the root visit, so on a worker goroutine.  The pause holds
		// the lock while the other workers improve and queue on it; they
		// must get it back once this worker panics.
		if nodes > 1 && fired.CompareAndSwap(false, true) {
			time.Sleep(20 * time.Millisecond)
			panic("injected progress panic")
		}
	}}
	defer func() {
		if r := recover(); r != "injected progress panic" {
			t.Fatalf("recovered %v; want the worker's panic re-raised on the caller", r)
		}
	}()
	MinMakespan(context.Background(), c, 40, opts)
	t.Fatal("MinMakespan returned; want the injected panic")
}

// hardInstance builds a layered instance big enough that the full search
// cannot finish within test deadlines.
func hardInstance() *core.Instance {
	g := dag.New()
	prev := []int{g.AddNode("s")}
	var fns []duration.Func
	const width, layers = 5, 5
	for l := 0; l < layers; l++ {
		var cur []int
		for w := 0; w < width; w++ {
			cur = append(cur, g.AddNode("v"))
		}
		for i, u := range prev {
			for j, v := range cur {
				if l > 0 && i != j && (i+j)%2 == 0 {
					continue
				}
				g.AddEdge(u, v)
				fns = append(fns, duration.NewKWay(100+int64(7*i+j)))
			}
		}
		prev = cur
	}
	t := g.AddNode("t")
	for _, u := range prev {
		g.AddEdge(u, t)
		fns = append(fns, duration.NewKWay(90))
	}
	return core.MustInstance(g, fns)
}

// TestBudgetedMakespanLowerBound checks the budget-aware floor on the
// chain: 5 jobs of 10 dropping to 1 for 2 units reused along the path.
func TestBudgetedMakespanLowerBound(t *testing.T) {
	chain := core.Compile(chainInstance(5, 10, 1, 2))
	if got := BudgetedMakespanLowerBound(chain, 0); got != 50 {
		t.Fatalf("budget 0: bound = %d; want 50", got)
	}
	if got := BudgetedMakespanLowerBound(chain, 2); got != 5 {
		t.Fatalf("budget 2: bound = %d; want 5", got)
	}
	// The bound must never exceed the true optimum.
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 20; trial++ {
		c := core.Compile(randomInstance(rng))
		for b := int64(0); b <= 4; b++ {
			sol, stats, err := MinMakespan(context.Background(), c, b, nil)
			if err != nil || !stats.Complete {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if lb := BudgetedMakespanLowerBound(c, b); lb > sol.Makespan {
				t.Fatalf("trial %d budget %d: bound %d exceeds optimum %d", trial, b, lb, sol.Makespan)
			}
		}
	}
}

// TestResourceLowerBound checks soundness (never above OPT) and usefulness
// (positive on a chain whose target forces every job to its paid level).
func TestResourceLowerBound(t *testing.T) {
	chain := core.Compile(chainInstance(4, 7, 2, 3))
	// Target 8 forces all four jobs to duration 2, each needing 3 units
	// reused over the path: the bound should see the full 3.
	if got := ResourceLowerBound(chain, 8); got != 3 {
		t.Fatalf("bound = %d; want 3", got)
	}
	// A generous target needs nothing.
	if got := ResourceLowerBound(chain, 28); got != 0 {
		t.Fatalf("generous target: bound = %d; want 0", got)
	}
	rng := rand.New(rand.NewSource(75))
	for trial := 0; trial < 20; trial++ {
		c := core.Compile(randomInstance(rng))
		lo, hi := c.MinMakespan, c.ZeroFlowMakespan()
		target := lo + rng.Int63n(hi-lo+1)
		sol, stats, err := MinResource(context.Background(), c, target, nil)
		if err != nil || !stats.Complete {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if lb := ResourceLowerBound(c, target); lb > sol.Value {
			t.Fatalf("trial %d (target %d): bound %d exceeds optimum %d", trial, target, lb, sol.Value)
		}
	}
}

// TestParallelNodeBudget: the node cap must stop the pool and be reported.
func TestParallelNodeBudget(t *testing.T) {
	inst := hardInstance()
	_, stats, err := MinMakespan(context.Background(), core.Compile(inst), 40, &Options{MaxNodes: 200, Parallelism: 4})
	if stats.Complete {
		t.Fatal("want incomplete search under a 200-node cap")
	}
	// Workers may overshoot the cap by at most one node each.
	if stats.Nodes > 200+8 {
		t.Fatalf("expanded %d nodes under a 200-node cap", stats.Nodes)
	}
	if err != nil && !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v; want nil (partial solution) or ErrTruncated", err)
	}
}

func ExampleOptions_parallelism() {
	inst := chainInstance(5, 10, 1, 2)
	sol, _, err := MinMakespan(context.Background(), core.Compile(inst), 2, &Options{Parallelism: 4})
	if err != nil {
		panic(err)
	}
	fmt.Println(sol.Makespan)
	// Output: 5
}

// TestSequentialSearchPinned pins the single-worker search on
// BenchmarkExactParallel's instance: at Parallelism 1 it must expand these
// node counts and return these witness flows in both modes.  The
// parallel-invariance tests normalize nodes and witnesses away, so this is
// what catches a scheduler change that reorders, repeats or skips part of
// the sequential depth-first search.
func TestSequentialSearchPinned(t *testing.T) {
	c := core.Compile(scenario.NewGen(13).KWayInstance(3, 4, 2, 80))
	opts := &Options{Parallelism: 1}

	sol, stats, err := MinMakespan(context.Background(), c, 10, opts)
	if err != nil || !stats.Complete {
		t.Fatalf("budget mode: err %v, complete %v", err, stats.Complete)
	}
	want := []int64{4, 0, 2, 2, 2, 0, 2, 2, 0, 4, 2, 0, 2, 6, 0, 0, 0, 2, 2, 6, 0, 2, 0, 0}
	if stats.Nodes != 9240 || sol.Makespan != 104 || !slices.Equal(sol.Flow, want) {
		t.Fatalf("budget 10: %d nodes, makespan %d, flow %v; want 9240 nodes, makespan 104, flow %v",
			stats.Nodes, sol.Makespan, sol.Flow, want)
	}

	const target = 120
	if target <= c.MinMakespan || target >= c.ZeroFlowMakespan() {
		t.Fatalf("target %d outside (%d, %d)", target, c.MinMakespan, c.ZeroFlowMakespan())
	}
	sol, stats, err = MinResource(context.Background(), c, target, opts)
	if err != nil || !stats.Complete {
		t.Fatalf("target mode: err %v, complete %v", err, stats.Complete)
	}
	want = []int64{4, 0, 2, 0, 2, 0, 2, 2, 0, 2, 2, 0, 2, 4, 0, 0, 2, 0, 2, 4, 2, 0, 0, 0}
	if stats.Nodes != 8820 || sol.Value != 8 || !slices.Equal(sol.Flow, want) {
		t.Fatalf("target %d: %d nodes, resource %d, flow %v; want 8820 nodes, resource 8, flow %v",
			target, stats.Nodes, sol.Value, sol.Flow, want)
	}
}
