package solver

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/duration"
	"repro/internal/exact"
	"repro/internal/scenario"
)

// raceFakes registers the probe solvers once: "test-race-fast" completes
// immediately, "test-race-slow" blocks until its context is canceled and
// records that it saw the cancellation, "test-race-panic" panics.
var (
	raceFakesOnce sync.Once
	slowCanceled  chan struct{}
)

func registerRaceFakes() {
	raceFakesOnce.Do(func() {
		slowCanceled = make(chan struct{}, 16)
		Register(&funcSolver{
			name: "test-race-fast",
			caps: Caps{Budget: true, Target: true},
			solve: func(ctx context.Context, c *core.Compiled, o Options) (*Report, error) {
				return &Report{Complete: true, Sol: core.Solution{Makespan: 42}}, nil
			},
		})
		Register(&funcSolver{
			name: "test-race-slow",
			caps: Caps{Budget: true, Target: true},
			solve: func(ctx context.Context, c *core.Compiled, o Options) (*Report, error) {
				<-ctx.Done()
				// Non-blocking: repeated test runs must never fill the
				// buffer and wedge raceSolve on an unread probe signal.
				select {
				case slowCanceled <- struct{}{}:
				default:
				}
				return nil, ctx.Err()
			},
		})
		Register(&funcSolver{
			name: "test-race-panic",
			caps: Caps{Budget: true, Target: true},
			solve: func(ctx context.Context, c *core.Compiled, o Options) (*Report, error) {
				panic("test-race-panic: injected")
			},
		})
	})
}

// TestRaceFirstCompleteWinsAndLoserIsCanceled pins the two racing
// invariants: the first complete result is returned as-is, and the loser's
// context is canceled rather than left running.
func TestRaceFirstCompleteWinsAndLoserIsCanceled(t *testing.T) {
	registerRaceFakes()
	inst := bridgeInstance(t, func() duration.Func { return stepFunc(t) })
	rep, winner, err := raceSolve(context.Background(), core.Compile(inst), NewOptions(WithBudget(3)),
		"test-race-slow", "test-race-fast")
	if err != nil {
		t.Fatal(err)
	}
	if winner != "test-race-fast" {
		t.Fatalf("winner = %q; want the completing solver", winner)
	}
	if rep.Sol.Makespan != 42 || !rep.Complete {
		t.Fatalf("winning report = %+v; want the fast solver's", rep)
	}
	select {
	case <-slowCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("the losing solver never saw its context canceled")
	}
}

// TestRaceNoWinnerReturnsBestFallback: when nobody completes, the race
// must surface the most useful partial outcome, not invent success.
func TestRaceNoWinnerReturnsBestFallback(t *testing.T) {
	registerRaceFakes()
	inst := bridgeInstance(t, func() duration.Func { return stepFunc(t) })
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // both racers are born canceled
	_, _, err := raceSolve(ctx, core.Compile(inst), NewOptions(WithBudget(3)), "test-race-slow", "test-race-slow")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled from the fallback outcome", err)
	}
}

// TestRacePanicReraisedOnCaller: a racer's panic must not escape on its
// own goroutine (that would kill the process); it is recovered there and
// re-raised on the caller, where the service's pool turns it into a
// failed request, and the other racer is canceled.
func TestRacePanicReraisedOnCaller(t *testing.T) {
	registerRaceFakes()
	inst := bridgeInstance(t, func() duration.Func { return stepFunc(t) })
	func() {
		defer func() {
			if r := recover(); r != "test-race-panic: injected" {
				t.Fatalf("recovered %v; want the racer's panic re-raised on the caller", r)
			}
		}()
		raceSolve(context.Background(), core.Compile(inst), NewOptions(WithBudget(3)), "test-race-panic", "test-race-slow")
	}()
	select {
	case <-slowCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("the other racer never saw its context canceled")
	}
}

// raceBandInstance returns an instance whose assignment space falls in
// (autoExactSpace, autoRaceSpace]: too big for the plain exact route, small
// enough to race.
func raceBandInstance(t *testing.T) *core.Instance {
	t.Helper()
	for seed := int64(1); seed < 40; seed++ {
		inst := scenario.NewGen(seed).StepInstance(4, 4, 2, 4, 12, 3)
		if space := core.Compile(inst).AssignmentSpace; space > autoExactSpace && space <= autoRaceSpace {
			return inst
		}
	}
	t.Fatal("no generator seed produced an instance in the race band")
	return nil
}

// TestAutoRacingRoute is the table-driven check of auto's new route: with
// parallelism, near-threshold instances race in both objectives; without
// it, or far past the threshold, they fall back to the rounding solvers -
// the scale tier included, which takes no parallelism of its own but is
// still reached through auto when parallelism is asked for.
func TestAutoRacingRoute(t *testing.T) {
	inst := raceBandInstance(t)
	big := scenario.NewGen(3).StepInstance(8, 8, 6, 5, 200, 3) // beyond autoRaceSpace
	if space := core.Compile(big).AssignmentSpace; space <= autoRaceSpace {
		t.Fatalf("assignment space %d; want beyond the race band", space)
	}
	huge := scenario.NewGen(3).StepInstance(16, 12, 8, 4, 40, 5) // beyond autoDenseLPArcs
	if x := core.Compile(huge).ExpandedArcs; x <= autoDenseLPArcs {
		t.Fatalf("expansion of %d arcs; want beyond the dense-LP cap", x)
	}
	tests := []struct {
		name    string
		inst    *core.Instance
		opts    []Option
		routing string
		winners []string
	}{
		{"race-budget", inst, []Option{WithBudget(6), WithParallelism(2)},
			"auto -> race(exact vs bicriteria):", []string{"exact", "bicriteria"}},
		{"race-target", inst, []Option{WithTarget(40), WithParallelism(2)},
			"auto -> race(exact vs bicriteria-resource):", []string{"exact", "bicriteria-resource"}},
		{"sequential-no-race", inst, []Option{WithBudget(6), WithParallelism(1)},
			"auto -> bicriteria:", []string{"bicriteria"}},
		{"beyond-band-no-race", big, []Option{WithBudget(10), WithParallelism(4)},
			"auto -> bicriteria:", []string{"bicriteria"}},
		{"scale-tier-with-parallelism", huge, []Option{WithBudget(30), WithParallelism(4)},
			"auto -> frankwolfe:", []string{"frankwolfe"}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := solveInst(context.Background(), "auto", tc.inst, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(rep.Routing, tc.routing) {
				t.Fatalf("Routing = %q; want prefix %q", rep.Routing, tc.routing)
			}
			okWinner := false
			for _, w := range tc.winners {
				if rep.Solver == w {
					okWinner = true
				}
			}
			if !okWinner {
				t.Fatalf("Solver = %q; want one of %v", rep.Solver, tc.winners)
			}
			if rep.Sol.Makespan <= 0 && rep.Sol.Value < 0 {
				t.Fatalf("degenerate solution %+v", rep.Sol)
			}
		})
	}
}

// TestAutoRaceNeverWorseThanExactAlone: when the exact racer completes, the
// racing route must report its (optimal) value, so racing with enough node
// budget costs no solution quality on race-band instances.
func TestAutoRaceNeverWorseThanExactAlone(t *testing.T) {
	inst := raceBandInstance(t)
	const budget = 5
	ex, err := solveInst(context.Background(), "exact", inst, WithBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Complete {
		t.Skip("exact could not finish this instance; nothing to compare")
	}
	rep, err := solveInst(context.Background(), "auto", inst, WithBudget(budget), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Solver == "exact" && rep.Sol.Makespan != ex.Sol.Makespan {
		t.Fatalf("racing exact returned %d; solo exact %d", rep.Sol.Makespan, ex.Sol.Makespan)
	}
	// No assertion against ex.Sol.Makespan when bicriteria wins: its
	// guarantee lets it overspend the budget, so it may legitimately land
	// below the budget-constrained optimum.
}

// TestParallelismCapabilityChecked: single-threaded solvers must reject
// explicit parallelism instead of silently ignoring it.
func TestParallelismCapabilityChecked(t *testing.T) {
	inst := bridgeInstance(t, func() duration.Func { return stepFunc(t) })
	for _, name := range []string{"bicriteria", "kway5", "binary4", "binarybi", "spdp", "frankwolfe"} {
		_, err := solveInst(context.Background(), name, inst, WithBudget(3), WithParallelism(4))
		if err == nil || !strings.Contains(err.Error(), "single-threaded") {
			t.Fatalf("%s: err = %v; want capability error", name, err)
		}
	}
	// Parallel-capable solvers accept it; 0 and 1 are always accepted.
	if _, err := solveInst(context.Background(), "exact", inst, WithBudget(3), WithParallelism(4)); err != nil {
		t.Fatalf("exact with parallelism: %v", err)
	}
	if _, err := solveInst(context.Background(), "bicriteria", inst, WithBudget(3), WithParallelism(1)); err != nil {
		t.Fatalf("bicriteria with parallelism 1: %v", err)
	}
	// Negative parallelism is a mistake, not a request for all cores.
	if _, err := solveInst(context.Background(), "exact", inst, WithBudget(3), WithParallelism(-1)); err == nil ||
		!strings.Contains(err.Error(), "negative parallelism") {
		t.Fatalf("parallelism -1: err = %v; want rejection", err)
	}
}

// TestExactParallelDeterministicThroughSolver re-checks the determinism
// contract end to end through the registry API.
func TestExactParallelDeterministicThroughSolver(t *testing.T) {
	inst := bridgeInstance(t, func() duration.Func { return stepFunc(t) })
	want := int64(-1)
	for par := 1; par <= 8; par++ {
		rep, err := solveInst(context.Background(), "exact", inst, WithBudget(4), WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Complete {
			t.Fatalf("parallelism %d: incomplete", par)
		}
		if want < 0 {
			want = rep.Sol.Makespan
		} else if rep.Sol.Makespan != want {
			t.Fatalf("parallelism %d: makespan %d != %d at parallelism 1", par, rep.Sol.Makespan, want)
		}
	}
}

// TestIncompleteMinResourceReportsLowerBound locks the satellite bugfix:
// a truncated min-resource run must carry the slack-induced min-flow
// bound instead of leaving LowerBound at 0 — also when the node cap hits
// before any solution, which at some worker counts it does after the
// root.
func TestIncompleteMinResourceReportsLowerBound(t *testing.T) {
	// A chain of jobs each needing 3 units to meet the target (see
	// exact.TestResourceLowerBound): the bound is 3 even when the search
	// is cut off after the root.
	inst := chainInstance4x7()
	rep, err := solveInst(context.Background(), "exact", inst, WithTarget(8), WithMaxNodes(1))
	if err != nil && !errors.Is(err, exact.ErrTruncated) {
		t.Fatalf("err = %v; want a partial report or ErrTruncated", err)
	}
	if rep == nil {
		t.Fatalf("truncated run returned no report (err %v); it must carry the bound", err)
	}
	if rep.Complete {
		t.Skip("search completed; the incomplete path was not exercised")
	}
	if rep.LowerBound != 3 {
		t.Fatalf("LowerBound = %v; want the min-flow bound 3", rep.LowerBound)
	}
}

func chainInstance4x7() *core.Instance {
	g := dag.New()
	prev := g.AddNode("s")
	var fns []duration.Func
	for i := 0; i < 4; i++ {
		v := g.AddNode("v")
		g.AddEdge(prev, v)
		fns = append(fns, duration.MustStep(
			duration.Tuple{R: 0, T: 7},
			duration.Tuple{R: 3, T: 2},
		))
		prev = v
	}
	return core.MustInstance(g, fns)
}
