package solver

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/duration"
	"repro/internal/exact"
	"repro/internal/scenario"
	"repro/internal/sp"
)

// solveInst compiles inst and runs the named solver on it through the one
// solve entry point, with functional options.
func solveInst(ctx context.Context, name string, inst *core.Instance, opts ...Option) (*Report, error) {
	return SolveCompiledOptions(ctx, name, core.Compile(inst), NewOptions(opts...))
}

// bridgeInstance builds the Wheatstone bridge - the forbidden subgraph of
// two-terminal series-parallel DAGs - with one duration function class on
// every arc, so class-based routing can be tested in isolation from the
// series-parallel rule.
func bridgeInstance(t *testing.T, mk func() duration.Func) *core.Instance {
	t.Helper()
	g := dag.New()
	s, a, b, snk := g.AddNode("s"), g.AddNode("a"), g.AddNode("b"), g.AddNode("t")
	fns := make([]duration.Func, 0, 5)
	for _, arc := range [][2]int{{s, a}, {s, b}, {a, b}, {a, snk}, {b, snk}} {
		g.AddEdge(arc[0], arc[1])
		fns = append(fns, mk())
	}
	inst, err := core.NewInstance(g, fns)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func stepFunc(t *testing.T) duration.Func {
	t.Helper()
	fn, err := duration.NewStep([]duration.Tuple{{R: 0, T: 9}, {R: 1, T: 5}, {R: 3, T: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

func TestRegistryResolvesAllBuiltins(t *testing.T) {
	want := []string{"auto", "bicriteria", "bicriteria-resource", "binary4", "binarybi", "exact", "frankwolfe", "kway5", "spdp"}
	for _, name := range want {
		s, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("Get(%q).Name() = %q", name, s.Name())
		}
	}
	// Other tests may register "test-"-prefixed probe solvers; ignore them.
	var names []string
	for _, name := range Names() {
		if !strings.HasPrefix(name, "test-") {
			names = append(names, name)
		}
	}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v; want the %d built-ins %v", names, len(want), want)
	}
	for i, name := range want {
		if names[i] != name {
			t.Fatalf("Names()[%d] = %q; want %q (sorted)", i, names[i], name)
		}
	}
	if _, err := Get("nope"); err == nil || !strings.Contains(err.Error(), "unknown solver") {
		t.Fatalf("Get(nope) = %v; want unknown-solver error", err)
	}
}

func TestCapabilitiesRejectUnsupportedMode(t *testing.T) {
	inst := bridgeInstance(t, func() duration.Func { return duration.NewKWay(30) })
	for _, name := range []string{"kway5", "binary4", "binarybi", "bicriteria"} {
		_, err := solveInst(context.Background(), name, inst, WithTarget(5))
		if err == nil || !strings.Contains(err.Error(), "does not support min-resource") {
			t.Fatalf("%s with target: err = %v; want unsupported-mode error", name, err)
		}
	}
	if _, err := solveInst(context.Background(), "bicriteria-resource", inst, WithBudget(5)); err == nil ||
		!strings.Contains(err.Error(), "does not support min-makespan") {
		t.Fatalf("bicriteria-resource with budget: err = %v; want unsupported-mode error", err)
	}
	if _, err := solveInst(context.Background(), "exact", inst); err == nil {
		t.Fatal("no budget and no target should be rejected")
	}
	if _, err := solveInst(context.Background(), "exact", inst, WithBudget(2), WithTarget(2)); err == nil {
		t.Fatal("both budget and target should be rejected")
	}
}

func TestAutoRouting(t *testing.T) {
	spInst, _, err := sp.Series(
		sp.Leaf(duration.NewKWay(40)),
		sp.Parallel(sp.Leaf(duration.NewKWay(25)), sp.Leaf(duration.NewRecursiveBinary(32))),
	).ToInstance()
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		inst   *core.Instance
		opts   []Option
		routed string
	}{
		{"sp-budget", spInst, []Option{WithBudget(6)}, "spdp"},
		{"sp-target", spInst, []Option{WithTarget(30)}, "spdp"},
		{"kway", bridgeInstance(t, func() duration.Func { return duration.NewKWay(30) }),
			[]Option{WithBudget(4)}, "kway5"},
		{"binary", bridgeInstance(t, func() duration.Func { return duration.NewRecursiveBinary(32) }),
			[]Option{WithBudget(4)}, "binary4"},
		{"step-small", bridgeInstance(t, func() duration.Func { return stepFunc(t) }),
			[]Option{WithBudget(4)}, "exact"},
		{"step-small-target", bridgeInstance(t, func() duration.Func { return stepFunc(t) }),
			[]Option{WithTarget(20)}, "exact"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := solveInst(context.Background(), "auto", tc.inst, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(rep.Routing, "auto -> "+tc.routed) {
				t.Fatalf("Routing = %q; want dispatch to %q", rep.Routing, tc.routed)
			}
			if rep.Solver != tc.routed {
				t.Fatalf("Solver = %q; want %q", rep.Solver, tc.routed)
			}
			if rep.Wall <= 0 {
				t.Fatal("Wall time not recorded")
			}
		})
	}
}

func TestAutoRoutesLargeStepToBiCriteria(t *testing.T) {
	// 128 arcs with up to 5 breakpoints each: far beyond the exact
	// search's assignment-space threshold, not series-parallel, and not a
	// recognized special class.
	inst := scenario.NewGen(3).StepInstance(8, 8, 6, 5, 200, 3)
	rep, err := solveInst(context.Background(), "auto", inst, WithBudget(10))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Routing, "auto -> bicriteria:") {
		t.Fatalf("Routing = %q; want bicriteria", rep.Routing)
	}
	if rep.LowerBound <= 0 {
		t.Fatalf("LowerBound = %v; want the LP bound", rep.LowerBound)
	}
}

func TestAutoAgreesWithExactOnSP(t *testing.T) {
	// On a series-parallel instance auto must route to the exact DP, so
	// its makespan must match branch-and-bound.
	tree := sp.Series(sp.Leaf(duration.NewKWay(60)),
		sp.Parallel(sp.Leaf(duration.NewKWay(40)), sp.Leaf(duration.NewKWay(50))))
	inst, _, err := tree.ToInstance()
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 2, 5, 9} {
		auto, err := solveInst(context.Background(), "auto", inst, WithBudget(budget))
		if err != nil {
			t.Fatal(err)
		}
		ex, err := solveInst(context.Background(), "exact", inst, WithBudget(budget))
		if err != nil {
			t.Fatal(err)
		}
		if !ex.Complete {
			t.Fatalf("budget %d: exact incomplete", budget)
		}
		if auto.Sol.Makespan != ex.Sol.Makespan {
			t.Fatalf("budget %d: auto(spdp) makespan %d != exact %d", budget, auto.Sol.Makespan, ex.Sol.Makespan)
		}
	}
}

func TestCanceledContextAbortsExactWithPartialReport(t *testing.T) {
	// This instance takes several seconds of branch-and-bound
	// uninterrupted (~150k nodes/3s); the deadline must cut it off after
	// a few nodes, keeping the best solution found so far.
	inst := scenario.NewGen(7).KWayInstance(5, 5, 3, 400)
	start := time.Now()
	rep, err := solveInst(context.Background(), "exact", inst,
		WithBudget(40), WithDeadline(time.Now().Add(150*time.Millisecond)))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v; want context.DeadlineExceeded", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("solve took %v after a 150ms deadline; cancellation is not prompt", elapsed)
	}
	if rep == nil {
		t.Fatal("want a partial Report alongside the context error")
	}
	if rep.Complete {
		t.Fatal("interrupted run must report Complete=false")
	}
	if rep.Nodes == 0 {
		t.Fatal("want at least one search node before interruption")
	}
	if rep.Sol.Makespan <= 0 || rep.Sol.Value > 40 {
		t.Fatalf("partial solution (makespan %d, resources %d) is not usable", rep.Sol.Makespan, rep.Sol.Value)
	}
}

func TestPastDeadlineReturnsImmediateLowerBoundReport(t *testing.T) {
	// Regression test: a deadline already in the past used to burn a full
	// scheduling round-trip (spinning up the branch-and-bound frontier and
	// worker pool) before the first cooperative poll noticed the dead
	// context.  Solve must now return the context error immediately, with
	// a lower-bound-only Report and zero search nodes.
	inst := scenario.NewGen(7).KWayInstance(5, 5, 3, 400)
	for name, opt := range map[string]Option{
		"budget": WithBudget(40),
		// The tightest possible target forces resources onto every
		// critical-path arc, so the slack-based resource bound is positive.
		"target": WithTarget(core.Compile(inst).MinMakespan),
	} {
		t.Run(name, func(t *testing.T) {
			start := time.Now()
			rep, err := solveInst(context.Background(), "exact", inst,
				opt, WithDeadline(time.Now().Add(-time.Second)))
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v; want context.DeadlineExceeded", err)
			}
			if rep == nil {
				t.Fatal("want a lower-bound-only Report alongside the error")
			}
			if rep.Nodes != 0 {
				t.Fatalf("Nodes = %d; a dead-on-arrival solve must not search", rep.Nodes)
			}
			if rep.Complete || rep.Exact {
				t.Fatal("a dead-on-arrival solve must not claim completeness")
			}
			if rep.Sol.Flow != nil {
				t.Fatal("no solution can exist; Report must be lower-bound-only")
			}
			if rep.LowerBound <= 0 {
				t.Fatalf("LowerBound = %v; want a positive sound bound", rep.LowerBound)
			}
			if rep.Solver != "exact" {
				t.Fatalf("Solver = %q; want %q", rep.Solver, "exact")
			}
			// The instance needs seconds of uninterrupted search; anywhere
			// near that means the round-trip was burned after all.
			if elapsed > time.Second {
				t.Fatalf("dead-on-arrival solve took %v; want an immediate return", elapsed)
			}
		})
	}
}

func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inst := bridgeInstance(t, func() duration.Func { return stepFunc(t) })
	if _, err := solveInst(ctx, "exact", inst, WithBudget(3)); !errors.Is(err, context.Canceled) {
		t.Fatalf("exact: err = %v; want context.Canceled", err)
	}
	if _, err := solveInst(ctx, "bicriteria", inst, WithBudget(3)); !errors.Is(err, context.Canceled) {
		t.Fatalf("bicriteria: err = %v; want context.Canceled (LP iteration must poll ctx)", err)
	}
}

func TestSPDPRejectsNonSeriesParallel(t *testing.T) {
	inst := bridgeInstance(t, func() duration.Func { return stepFunc(t) })
	if _, err := solveInst(context.Background(), "spdp", inst, WithBudget(3)); !errors.Is(err, ErrNotSeriesParallel) {
		t.Fatalf("err = %v; want ErrNotSeriesParallel", err)
	}
}

func TestSPDPFlowMatchesTables(t *testing.T) {
	g := scenario.NewGen(11)
	for trial := 0; trial < 10; trial++ {
		tree := g.SPTree(6, 3, 20, 3)
		inst, _, err := tree.ToInstance()
		if err != nil {
			t.Fatal(err)
		}
		const budget = 5
		tables, err := sp.Solve(context.Background(), tree, budget)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tables.Makespan(budget)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := solveInst(context.Background(), "spdp", inst, WithBudget(budget))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Sol.Makespan != want {
			t.Fatalf("trial %d: spdp solution makespan %d != DP table %d", trial, rep.Sol.Makespan, want)
		}
		if rep.Sol.Value > budget {
			t.Fatalf("trial %d: flow value %d exceeds budget %d", trial, rep.Sol.Value, budget)
		}
	}
}

func TestSPDPTargetMode(t *testing.T) {
	tree := sp.Series(sp.Leaf(duration.NewKWay(36)), sp.Leaf(duration.NewKWay(36)))
	inst, _, err := tree.ToInstance()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := solveInst(context.Background(), "spdp", inst, WithTarget(30))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sol.Makespan > 30 {
		t.Fatalf("makespan %d exceeds target 30", rep.Sol.Makespan)
	}
	ex, err := solveInst(context.Background(), "exact", inst, WithTarget(30))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sol.Value != ex.Sol.Value {
		t.Fatalf("spdp min resources %d != exact %d", rep.Sol.Value, ex.Sol.Value)
	}
	if _, err := solveInst(context.Background(), "spdp", inst, WithTarget(0)); err == nil {
		t.Fatal("unreachable target should error")
	}
}

func TestAutoSPBudgetGuardDoesNotOverflow(t *testing.T) {
	// A huge budget must not overflow the DP cost estimate and sneak a
	// series-parallel instance into spdp (which would allocate O(m*B)
	// table rows); auto has to fall back to another solver.
	inst, _, err := sp.Series(sp.Leaf(stepFunc(t)), sp.Leaf(stepFunc(t))).ToInstance()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := solveInst(context.Background(), "auto", inst, WithBudget(4_000_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(rep.Routing, "spdp") {
		t.Fatalf("Routing = %q; the budget guard must keep huge budgets away from the DP", rep.Routing)
	}
}

func TestSupportsClass(t *testing.T) {
	restricted := Caps{Classes: []string{duration.KindKWay}}
	if !restricted.SupportsClass(duration.KindKWay) || restricted.SupportsClass(duration.KindBinary) {
		t.Fatal("restricted caps must accept exactly their classes")
	}
	if !restricted.SupportsClass(duration.KindConst) {
		t.Fatal("constant functions belong to every class")
	}
	if !(Caps{Classes: []string{}}).SupportsClass(duration.KindConst) {
		t.Fatal("constant functions must pass even an empty class list")
	}
	if !(Caps{}).SupportsClass(duration.KindStep) {
		t.Fatal("nil Classes means any class")
	}
}

func TestOutOfClassGuaranteeIsVoided(t *testing.T) {
	// binary4 runs fine on general step functions, but Thm 3.10 does not
	// apply; the Report must not advertise the 4-approximation.
	inst := bridgeInstance(t, func() duration.Func { return stepFunc(t) })
	rep, err := solveInst(context.Background(), "binary4", inst, WithBudget(3))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Guarantee, "none") || !strings.Contains(rep.Guarantee, "step") {
		t.Fatalf("Guarantee = %q; want it voided for out-of-class input", rep.Guarantee)
	}
	// In-class input keeps the proven bound.
	kway := bridgeInstance(t, func() duration.Func { return duration.NewKWay(30) })
	rep, err = solveInst(context.Background(), "kway5", kway, WithBudget(3))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Guarantee, "5 OPT") {
		t.Fatalf("Guarantee = %q; want the Thm 3.9 bound on in-class input", rep.Guarantee)
	}
}

func TestTruncatedMinResourceIsNotNoSolution(t *testing.T) {
	// A node-capped search that found nothing must say "unknown", not
	// assert infeasibility: the target here is reachable.
	inst := bridgeInstance(t, func() duration.Func { return stepFunc(t) })
	full, err := solveInst(context.Background(), "exact", inst, WithTarget(10))
	if err != nil {
		t.Fatalf("target 10 should be reachable: %v", err)
	}
	_, err = solveInst(context.Background(), "exact", inst, WithTarget(10), WithMaxNodes(1))
	if !errors.Is(err, exact.ErrTruncated) {
		t.Fatalf("err = %v; want ErrTruncated (target is reachable with %d units)", err, full.Sol.Value)
	}
}

func TestConstantInstanceKeepsGuarantee(t *testing.T) {
	// Constant functions belong to every class; a class-restricted
	// solver's guarantee must not be voided on them.
	inst := bridgeInstance(t, func() duration.Func { return duration.Constant(5) })
	rep, err := solveInst(context.Background(), "kway5", inst, WithBudget(3))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(rep.Guarantee, "none") {
		t.Fatalf("Guarantee = %q; constants are in-class for every solver", rep.Guarantee)
	}
}

func TestSPDPHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tree := sp.Series(sp.Leaf(duration.NewKWay(36)), sp.Leaf(duration.NewKWay(25)))
	inst, _, err := tree.ToInstance()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solveInst(ctx, "spdp", inst, WithBudget(4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled (DP must poll ctx)", err)
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register must panic")
		}
	}()
	Register(&funcSolver{name: "exact"})
}

// TestAutoRoutesHugeToFrankWolfe checks the scale tier's size-based
// routing: once the expansion outgrows the dense simplex, auto dispatches
// to frankwolfe in both objectives — including for instances whose
// duration class would otherwise pick a dense-LP class solver — and the
// report carries a certified bound with its ratio.
func TestAutoRoutesHugeToFrankWolfe(t *testing.T) {
	g := scenario.NewGen(9)
	tests := []struct {
		name   string
		inst   *core.Instance
		opts   []Option
		budget bool
	}{
		{"step-budget", g.StepInstance(24, 24, 12, 4, 60, 5), []Option{WithBudget(40)}, true},
		{"step-target", g.StepInstance(24, 24, 12, 4, 60, 5), []Option{WithTarget(700)}, false},
		{"kway-budget", g.KWayInstance(24, 24, 12, 400), []Option{WithBudget(40)}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := solveInst(context.Background(), "auto", tc.inst, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Solver != "frankwolfe" || !strings.Contains(rep.Routing, "auto -> frankwolfe") {
				t.Fatalf("Solver = %q, Routing = %q; want frankwolfe", rep.Solver, rep.Routing)
			}
			if tc.budget {
				// Min-makespan: the optimum is positive (constant-free
				// critical paths), so the certified bound must be too.
				if rep.LPLowerBound <= 0 {
					t.Fatalf("LPLowerBound = %v; want a certified positive bound", rep.LPLowerBound)
				}
				if rep.ApproxRatioUpperBound <= 0 {
					t.Fatalf("ApproxRatioUpperBound = %v; want > 0", rep.ApproxRatioUpperBound)
				}
			} else {
				// Min-resource: the target must be met; a zero bound is
				// legitimate (zero resources may suffice for loose
				// targets), but any claimed ratio must be consistent.
				if rep.Sol.Makespan > 700 {
					t.Fatalf("makespan %d misses the 700 target", rep.Sol.Makespan)
				}
				if rep.ApproxRatioUpperBound != 0 && rep.ApproxRatioUpperBound < 1 {
					t.Fatalf("ApproxRatioUpperBound = %v; want 0 or >= 1", rep.ApproxRatioUpperBound)
				}
			}
		})
	}
}
