package relax

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/duration"
	"repro/internal/exact"
	"repro/internal/scenario"
)

// smallInstances is a pool of exactly-solvable instances spanning the
// duration classes and shapes.
func smallInstances(t *testing.T) []*core.Instance {
	t.Helper()
	g := scenario.NewGen(7)
	insts := []*core.Instance{
		g.StepInstance(2, 2, 1, 3, 9, 3),
		g.StepInstance(3, 2, 1, 3, 12, 4),
		g.KWayInstance(2, 2, 1, 30),
		g.BinaryInstance(2, 2, 1, 30),
		g.ForkJoin(2, 2, duration.KindKWay, 20),
	}
	// A hand-built diamond with a convexity-breaking breakpoint set: the
	// middle tuple lies above the hull, so envelope != step function.
	d := dag.New()
	s, a, b, tt := d.AddNode("s"), d.AddNode("a"), d.AddNode("b"), d.AddNode("t")
	d.AddEdge(s, a)
	d.AddEdge(a, tt)
	d.AddEdge(s, b)
	d.AddEdge(b, tt)
	fns := []duration.Func{
		duration.MustStep(duration.Tuple{R: 0, T: 10}, duration.Tuple{R: 1, T: 9}, duration.Tuple{R: 2, T: 1}),
		duration.MustStep(duration.Tuple{R: 0, T: 8}, duration.Tuple{R: 3, T: 2}),
		duration.Constant(4),
		duration.MustStep(duration.Tuple{R: 0, T: 7}, duration.Tuple{R: 2, T: 3}, duration.Tuple{R: 5, T: 0}),
	}
	insts = append(insts, core.MustInstance(d, fns))
	return insts
}

// TestMinMakespanSoundness checks, against the branch-and-bound optimum,
// the two sides of the scale tier's contract: the certified LowerBound
// never exceeds the optimum, and the rounded makespan never beats it
// (while staying within RelaxValue/alpha, the Theorem 3.4 bound).
func TestMinMakespanSoundness(t *testing.T) {
	for i, inst := range smallInstances(t) {
		c := core.Compile(inst)
		s := NewSolver(c)
		for _, budget := range []int64{0, 1, 2, 4, 7} {
			res, err := s.MinMakespan(context.Background(), budget, Options{})
			if err != nil {
				t.Fatalf("inst %d budget %d: %v", i, budget, err)
			}
			opt, _, err := exact.MinMakespan(context.Background(), c, budget, nil)
			if err != nil {
				t.Fatalf("inst %d budget %d exact: %v", i, budget, err)
			}
			if res.LowerBound > float64(opt.Makespan)+1e-6 {
				t.Errorf("inst %d budget %d: certified bound %.4f exceeds optimum %d",
					i, budget, res.LowerBound, opt.Makespan)
			}
			// The rounded solution may spend up to B/(1-alpha) resources
			// (bi-criteria), so it can beat the budget-B optimum; it must
			// not beat the optimum at its own resource usage.
			optOwn, _, err := exact.MinMakespan(context.Background(), c, res.Sol.Value, nil)
			if err != nil {
				t.Fatalf("inst %d budget %d exact(own): %v", i, budget, err)
			}
			if res.Sol.Makespan < optOwn.Makespan {
				t.Errorf("inst %d budget %d: rounded makespan %d beats the %d-resource optimum %d (infeasible flow?)",
					i, budget, res.Sol.Makespan, res.Sol.Value, optOwn.Makespan)
			}
			if got, bound := float64(res.Sol.Makespan), res.RelaxValue/0.5+1e-6; got > bound {
				t.Errorf("inst %d budget %d: makespan %v breaks the relax/alpha bound %v",
					i, budget, got, bound)
			}
			if res.Sol.Value > budget*2 {
				t.Errorf("inst %d budget %d: resources %d exceed B/(1-alpha) = %d",
					i, budget, res.Sol.Value, budget*2)
			}
			if err := inst.ValidateFlow(res.Sol.Flow, -1); err != nil {
				t.Errorf("inst %d budget %d: invalid flow: %v", i, budget, err)
			}
		}
	}
}

// TestAgreesWithDenseLP relates the envelope relaxation to the paper's
// expansion LP: the envelope model forces the canonical chain-filling
// order, so its optimum — and hence RelaxValue, which upper-bounds it —
// dominates the dense LP optimum, which may spread flow across chains
// non-canonically.  (The certificate LowerBound may legitimately exceed
// the LP optimum for the same reason: it is a TIGHTER sound bound; its
// soundness against the true optimum is TestMinMakespanSoundness's job.)
func TestAgreesWithDenseLP(t *testing.T) {
	for i, inst := range smallInstances(t) {
		c := core.Compile(inst)
		s := NewSolver(c)
		for _, budget := range []int64{0, 2, 5} {
			rel, err := approx.SolveMakespanLP(context.Background(), c, budget)
			if err != nil {
				t.Fatalf("inst %d budget %d dense LP: %v", i, budget, err)
			}
			res, err := s.MinMakespan(context.Background(), budget, Options{})
			if err != nil {
				t.Fatalf("inst %d budget %d: %v", i, budget, err)
			}
			if res.RelaxValue < rel.Objective-1e-6 {
				t.Errorf("inst %d budget %d: objective %.6f below LP optimum %.6f (phi cannot beat the LP)",
					i, budget, res.RelaxValue, rel.Objective)
			}
			// LowerBound may exceed RelaxValue: it folds in the integral
			// budget-floor bound, which the fractional relaxation can beat.
		}
	}
}

// TestMinResource checks target mode: the solution meets the target, the
// certified resource bound is sound against the exact optimum, and
// unreachable targets error.
func TestMinResource(t *testing.T) {
	for i, inst := range smallInstances(t) {
		c := core.Compile(inst)
		s := NewSolver(c)
		for _, target := range []int64{c.ZeroFlowMakespan(), (c.ZeroFlowMakespan() + c.MinMakespan) / 2, c.MinMakespan} {
			res, err := s.MinResource(context.Background(), target, Options{})
			if err != nil {
				t.Fatalf("inst %d target %d: %v", i, target, err)
			}
			if res.Sol.Makespan > target {
				t.Errorf("inst %d target %d: makespan %d misses the target", i, target, res.Sol.Makespan)
			}
			opt, _, err := exact.MinResource(context.Background(), c, target, nil)
			if err != nil {
				t.Fatalf("inst %d target %d exact: %v", i, target, err)
			}
			if res.LowerBound > float64(opt.Value)+1e-6 {
				t.Errorf("inst %d target %d: certified resource bound %.4f exceeds optimum %d",
					i, target, res.LowerBound, opt.Value)
			}
			if res.Sol.Value < opt.Value {
				t.Errorf("inst %d target %d: resources %d beat the optimum %d",
					i, target, res.Sol.Value, opt.Value)
			}
		}
		if _, err := s.MinResource(context.Background(), c.MinMakespan-1, Options{}); err == nil && c.MinMakespan > 0 {
			t.Errorf("inst %d: sub-floor target did not error", i)
		}
	}
}

// sameResult fails t unless got is bit-identical to want: same iteration
// count, same objective and certificate to the last float bit, same
// rounded solution.
func sameResult(t testing.TB, what string, got, want *Result) {
	t.Helper()
	if got.Iters != want.Iters ||
		math.Float64bits(got.RelaxValue) != math.Float64bits(want.RelaxValue) ||
		math.Float64bits(got.LowerBound) != math.Float64bits(want.LowerBound) ||
		!reflect.DeepEqual(got.Sol, want.Sol) {
		t.Fatalf("%s drifted from a lone fresh solve:\ngot  %+v\nwant %+v", what, got, want)
	}
}

// midpointTarget is a target-mode makespan between the all-fastest floor
// and the zero-resource makespan: reachable, but not free.
func midpointTarget(c *core.Compiled) int64 {
	return c.MinMakespan + (c.ZeroFlowMakespan()-c.MinMakespan)/2
}

// concurrentSolves runs n solves at once, each on its own Solver over the
// one shared c, and returns their results in launch order.
func concurrentSolves(t *testing.T, c *core.Compiled, n int, solve func(*Solver) (*Result, error)) []*Result {
	t.Helper()
	res := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], errs[i] = solve(NewSolver(c))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent solve %d: %v", i, err)
		}
	}
	return res
}

// TestParallelSweepDeterministic is the relaxation side of the determinism
// invariant ("parallelism changes when, never what") in the form a worker
// pool exercises it: budget-mode solves running at once, each on its own
// Solver over one shared core.Compiled, must each return bit-identically
// what a lone solve returns. The shared Compiled is fresh, so the solves
// also race to build its lazy Levels and Envelopes; run with -race (this
// package is in the CI race job) to check they only read shared state.
func TestParallelSweepDeterministic(t *testing.T) {
	ctx := context.Background()
	for _, spec := range scenario.DefaultCorpus() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			inst, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			budget := inst.MaxUsefulBudget() / 2
			want, err := NewSolver(core.Compile(inst)).MinMakespan(ctx, budget, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range concurrentSolves(t, core.Compile(inst), 2, func(s *Solver) (*Result, error) {
				return s.MinMakespan(ctx, budget, Options{})
			}) {
				sameResult(t, "concurrent MinMakespan", got, want)
			}
		})
	}
}

// TestParallelMinResourceDeterministic is TestParallelSweepDeterministic
// for the target-mode binary search - many Frank-Wolfe solves back to
// back on each Solver - at the midpoint target.
func TestParallelMinResourceDeterministic(t *testing.T) {
	ctx := context.Background()
	for _, spec := range scenario.DefaultCorpus() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			inst, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			c := core.Compile(inst)
			target := midpointTarget(c)
			want, err := NewSolver(c).MinResource(ctx, target, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range concurrentSolves(t, core.Compile(inst), 2, func(s *Solver) (*Result, error) {
				return s.MinResource(ctx, target, Options{})
			}) {
				sameResult(t, "concurrent MinResource", got, want)
			}
		})
	}
}

// TestSolverReuseDeterministic checks, on every corpus instance and in
// both modes, that a reused Solver leaks no state between solves: after
// dirtying solves at other budgets (a target-mode binary search among
// them), it must return exactly what a fresh Solver returns.
func TestSolverReuseDeterministic(t *testing.T) {
	ctx := context.Background()
	for _, spec := range scenario.DefaultCorpus() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			inst, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			c := core.Compile(inst)
			budget := inst.MaxUsefulBudget() / 2
			target := midpointTarget(c)

			freshMk, err := NewSolver(c).MinMakespan(ctx, budget, Options{})
			if err != nil {
				t.Fatal(err)
			}
			freshRes, err := NewSolver(c).MinResource(ctx, target, Options{})
			if err != nil {
				t.Fatal(err)
			}

			s := NewSolver(c)
			if _, err := s.MinMakespan(ctx, budget/2+1, Options{}); err != nil {
				t.Fatal(err)
			}
			res, err := s.MinResource(ctx, target, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "reused MinResource", res, freshRes)
			mk, err := s.MinMakespan(ctx, budget, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "reused MinMakespan", mk, freshMk)
		})
	}
}

// TestLargeInstanceFast is the scale-tier smoke: a general layered DAG in
// the tens of thousands of arcs solves with a finite certified gap.  The
// full 50k-arc acceptance run lives in the CLI smoke and
// examples/largescale; this keeps `go test` snappy.
func TestLargeInstanceFast(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance solve in -short mode")
	}
	inst := scenario.NewGen(3).StepInstance(60, 20, 20, 4, 50, 6)
	s := NewSolver(core.Compile(inst))
	res, err := s.MinMakespan(context.Background(), 200, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.LowerBound <= 0 {
		t.Fatalf("no certified bound on a positive-makespan instance: %+v", res)
	}
	ratio := float64(res.Sol.Makespan) / res.LowerBound
	if math.IsInf(ratio, 0) || ratio < 1-1e-9 {
		t.Fatalf("nonsensical ratio %v (makespan %d, bound %.2f)", ratio, res.Sol.Makespan, res.LowerBound)
	}
	t.Logf("arcs=%d makespan=%d relax=%.1f bound=%.1f ratio=%.3f iters=%d",
		inst.G.NumEdges(), res.Sol.Makespan, res.RelaxValue, res.LowerBound, ratio, res.Iters)
}

// TestCanceledContext checks cooperative cancellation: a pre-canceled
// context errors with no result, and a mid-iteration cancel still
// returns a rounded partial solution alongside the context error (the
// exact search's partial-report contract).
func TestCanceledContext(t *testing.T) {
	inst := scenario.NewGen(5).StepInstance(3, 3, 2, 4, 20, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := NewSolver(core.Compile(inst)).MinMakespan(ctx, 5, Options{})
	if err == nil {
		t.Fatal("canceled context did not error")
	}
	if res != nil {
		t.Fatalf("pre-canceled solve returned a result: %+v", res)
	}

	// The wide k-way instance needs thousands of Frank-Wolfe iterations
	// to close its gap (budget spread over 24 parallel lanes, one path
	// per step), and the stall stop cannot fire before iteration 400.
	// The first progress event, after iteration 1, cancels the context,
	// so the loop's next poll interrupts it mid-iteration whatever the
	// machine's speed.
	big := scenario.NewGen(9).KWayInstance(24, 24, 12, 400)
	cctx, ccancel := context.WithCancel(context.Background())
	defer ccancel()
	res, err = NewSolver(core.Compile(big)).MinMakespan(cctx, 40, Options{maxIters: 1 << 30, tol: 1e-300,
		Progress: func(float64, float64, int64) { ccancel() }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("solve canceled mid-iteration returned err %v; want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("mid-iteration interruption dropped the partial result")
	}
	if err := big.ValidateFlow(res.Sol.Flow, -1); err != nil {
		t.Fatalf("partial solution flow invalid: %v", err)
	}
	if res.Sol.Makespan <= 0 || res.Iters == 0 {
		t.Fatalf("partial result is empty: %+v", res)
	}
}
