package approx

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/duration"
	"repro/internal/exact"
)

// chain builds a path instance with the given duration functions.
func chain(fns ...duration.Func) *core.Instance {
	g := dag.New()
	prev := g.AddNode("s")
	for range fns {
		v := g.AddNode("v")
		g.AddEdge(prev, v)
		prev = v
	}
	return core.MustInstance(g, fns)
}

func step(high, low, r int64) duration.Func {
	return duration.MustStep(duration.Tuple{R: 0, T: high}, duration.Tuple{R: r, T: low})
}

func TestSolveMakespanLPChain(t *testing.T) {
	// Two series jobs {<0,10>, <2,0>}: with budget 2 the LP can zero both
	// (reuse over the path), so the relaxed makespan is 0.
	c := core.Compile(chain(step(10, 0, 2), step(10, 0, 2)))
	rel, err := SolveMakespanLP(context.Background(), c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Objective > 1e-6 {
		t.Fatalf("LP objective = %v; want 0", rel.Objective)
	}
	if rel.Value > 2+1e-6 {
		t.Fatalf("LP uses %v units; budget 2", rel.Value)
	}
	// With budget 1 the LP halves both durations at best: makespan 10.
	rel, err = SolveMakespanLP(context.Background(), c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rel.Objective-10) > 1e-6 {
		t.Fatalf("LP objective = %v; want 10", rel.Objective)
	}
}

func TestSolveResourceLPChain(t *testing.T) {
	c := core.Compile(chain(step(10, 0, 2), step(10, 0, 2)))
	rel, err := SolveResourceLP(context.Background(), c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rel.Objective-2) > 1e-6 {
		t.Fatalf("LP resource = %v; want 2", rel.Objective)
	}
}

func TestLPIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		c := core.Compile(randomStepInstance(rng))
		budget := int64(rng.Intn(5))
		rel, err := SolveMakespanLP(context.Background(), c, budget)
		if err != nil {
			t.Fatal(err)
		}
		sol, stats, err := exact.MinMakespan(context.Background(), c, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Complete {
			t.Fatal("exact incomplete")
		}
		if rel.Objective > float64(sol.Makespan)+1e-6 {
			t.Fatalf("trial %d: LP %v exceeds OPT %d", trial, rel.Objective, sol.Makespan)
		}
	}
}

func TestBiCriteriaParamValidation(t *testing.T) {
	inst := chain(step(5, 1, 2))
	c := core.Compile(inst)
	for _, alpha := range []float64{0, 1, -0.5, 1.5} {
		if _, err := BiCriteria(context.Background(), c, 2, alpha); err == nil {
			t.Fatalf("alpha=%v: want error", alpha)
		}
	}
	if _, err := BiCriteria(context.Background(), c, -1, 0.5); err == nil {
		t.Fatal("want error for negative budget")
	}
}

// TestBiCriteriaGuarantees checks the Theorem 3.4 bounds on random step
// instances: resources <= LPValue/(1-alpha) and makespan <= LPObj/alpha,
// hence makespan <= OPT/alpha.
func TestBiCriteriaGuarantees(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		inst := randomStepInstance(rng)
		budget := int64(rng.Intn(6))
		for _, alpha := range []float64{0.25, 0.5, 0.75} {
			res, err := BiCriteria(context.Background(), core.Compile(inst), budget, alpha)
			if err != nil {
				t.Fatal(err)
			}
			if got, lim := float64(res.Sol.Value), res.LPValue/(1-alpha)+1e-6; got > lim {
				t.Fatalf("trial %d alpha %v: resources %v > %v", trial, alpha, got, lim)
			}
			if got, lim := float64(res.Sol.Makespan), res.LPObjective/alpha+1e-6; got > lim {
				t.Fatalf("trial %d alpha %v: makespan %v > %v", trial, alpha, got, lim)
			}
			if err := inst.ValidateFlow(res.Sol.Flow, -1); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestBiCriteriaVsExact verifies makespan <= OPT/alpha against the exact
// optimum (the LP bound is weaker; this closes the loop end to end).
func TestBiCriteriaVsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 15; trial++ {
		inst := randomStepInstance(rng)
		c := core.Compile(inst)
		budget := int64(1 + rng.Intn(4))
		opt, stats, err := exact.MinMakespan(context.Background(), c, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Complete {
			t.Fatal("exact incomplete")
		}
		res, err := BiCriteria(context.Background(), c, budget, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if float64(res.Sol.Makespan) > 2*float64(opt.Makespan)+1e-6 {
			t.Fatalf("trial %d: makespan %d > 2*OPT %d", trial, res.Sol.Makespan, opt.Makespan)
		}
	}
}

func TestBiCriteriaResource(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 15; trial++ {
		inst := randomStepInstance(rng)
		c := core.Compile(inst)
		lo, hi := c.MinMakespan, c.ZeroFlowMakespan()
		if hi == lo {
			continue
		}
		target := lo + rng.Int63n(hi-lo+1)
		res, err := BiCriteriaResource(context.Background(), c, target, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		// Resource within LP/(1-alpha); makespan within target/alpha.
		if got, lim := float64(res.Sol.Value), res.LPObjective/0.5+1e-6; got > lim {
			t.Fatalf("trial %d: resources %v > %v", trial, got, lim)
		}
		if got, lim := float64(res.Sol.Makespan), float64(target)/0.5+1e-6; got > lim {
			t.Fatalf("trial %d: makespan %v > %v", trial, got, lim)
		}
	}
}

// TestKWay5Guarantees: budget respected exactly, makespan <= 5 OPT.
func TestKWay5Guarantees(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 20; trial++ {
		inst := randomKindInstance(rng, duration.KindKWay)
		c := core.Compile(inst)
		budget := int64(rng.Intn(6))
		res, err := KWay5(context.Background(), c, budget)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sol.Value > budget {
			t.Fatalf("trial %d: used %d > budget %d", trial, res.Sol.Value, budget)
		}
		opt, stats, err := exact.MinMakespan(context.Background(), c, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Complete {
			t.Fatal("exact incomplete")
		}
		if float64(res.Sol.Makespan) > 5*float64(opt.Makespan)+1e-6 {
			t.Fatalf("trial %d: makespan %d > 5*OPT %d", trial, res.Sol.Makespan, opt.Makespan)
		}
	}
}

// TestBinary4Guarantees: budget respected, makespan <= 4 OPT.
func TestBinary4Guarantees(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 20; trial++ {
		inst := randomKindInstance(rng, duration.KindBinary)
		c := core.Compile(inst)
		budget := int64(rng.Intn(6))
		res, err := Binary4(context.Background(), c, budget)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sol.Value > budget {
			t.Fatalf("trial %d: used %d > budget %d", trial, res.Sol.Value, budget)
		}
		opt, stats, err := exact.MinMakespan(context.Background(), c, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Complete {
			t.Fatal("exact incomplete")
		}
		if float64(res.Sol.Makespan) > 4*float64(opt.Makespan)+1e-6 {
			t.Fatalf("trial %d: makespan %d > 4*OPT %d", trial, res.Sol.Makespan, opt.Makespan)
		}
	}
}

// TestBinaryBiCriteriaGuarantees: resources <= (4/3) LPValue, makespan
// <= (14/5) OPT.
func TestBinaryBiCriteriaGuarantees(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 20; trial++ {
		inst := randomKindInstance(rng, duration.KindBinary)
		c := core.Compile(inst)
		budget := int64(rng.Intn(6))
		res, err := BinaryBiCriteria(context.Background(), c, budget)
		if err != nil {
			t.Fatal(err)
		}
		if got, lim := float64(res.Sol.Value), 4.0/3.0*res.LPValue+1e-6; got > lim {
			t.Fatalf("trial %d: resources %v > (4/3) LP %v", trial, got, lim)
		}
		opt, stats, err := exact.MinMakespan(context.Background(), c, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Complete {
			t.Fatal("exact incomplete")
		}
		if float64(res.Sol.Makespan) > 14.0/5.0*float64(opt.Makespan)+1e-6 {
			t.Fatalf("trial %d: makespan %d > (14/5)*OPT %d", trial, res.Sol.Makespan, opt.Makespan)
		}
	}
}

func TestRoundLog(t *testing.T) {
	cases := map[float64]int64{
		0:    0,
		0.99: 0,
		1:    1,
		1.4:  1,
		1.5:  2,
		2:    2,
		2.9:  2,
		3:    4,
		4:    4,
		5.9:  4,
		6:    8,
	}
	for in, want := range cases {
		if got := roundLog(in); got != want {
			t.Errorf("roundLog(%v) = %d; want %d", in, got, want)
		}
	}
}

func TestClampToBreakpoint(t *testing.T) {
	fn := duration.NewRecursiveBinary(100)
	if got := clampToBreakpoint(fn, 3); got != 2 {
		t.Fatalf("clamp(3) = %d; want 2", got)
	}
	if got := clampToBreakpoint(fn, 0); got != 0 {
		t.Fatalf("clamp(0) = %d; want 0", got)
	}
	if got := clampToBreakpoint(fn, 1000); got != duration.MaxUsefulResource(fn) {
		t.Fatalf("clamp(1000) = %d", got)
	}
}

func TestPrevPow2(t *testing.T) {
	cases := map[int64]int64{
		0: 0, 1: 1, 2: 2, 3: 2, 4: 4, 7: 4, 8: 8, 1000: 512,
		// float64(x) rounds these up to the next power of two.
		1<<49 - 1: 1 << 48, 1<<62 - 1: 1 << 61, math.MaxInt64: 1 << 62,
	}
	for in, want := range cases {
		if got := prevPow2(in); got != want {
			t.Errorf("prevPow2(%d) = %d; want %d", in, got, want)
		}
	}
}

func TestZeroBudgetDegenerates(t *testing.T) {
	inst := chain(step(9, 1, 2), step(7, 2, 3))
	c := core.Compile(inst)
	for name, run := range map[string]func() (*Result, error){
		"bicriteria": func() (*Result, error) { return BiCriteria(context.Background(), c, 0, 0.5) },
		"kway":       func() (*Result, error) { return KWay5(context.Background(), c, 0) },
		"binary":     func() (*Result, error) { return Binary4(context.Background(), c, 0) },
		"binarybi":   func() (*Result, error) { return BinaryBiCriteria(context.Background(), c, 0) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Sol.Value != 0 {
			t.Fatalf("%s: used %d units with zero budget", name, res.Sol.Value)
		}
		if res.Sol.Makespan != c.ZeroFlowMakespan() {
			t.Fatalf("%s: makespan %d != zero-flow %d", name, res.Sol.Makespan, c.ZeroFlowMakespan())
		}
	}
}

// randomStepInstance builds a small layered instance with random step
// functions (2-3 tuples each).
func randomStepInstance(rng *rand.Rand) *core.Instance {
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
		t0 := int64(1 + rng.Intn(9))
		tuples := []duration.Tuple{{R: 0, T: t0}}
		if rng.Intn(4) > 0 {
			tuples = append(tuples, duration.Tuple{R: int64(1 + rng.Intn(3)), T: rng.Int63n(t0)})
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

// randomKindInstance builds a small layered instance whose jobs all use
// the given duration class (k-way or binary) with random base durations.
func randomKindInstance(rng *rand.Rand, kind string) *core.Instance {
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
		t0 := int64(1 + rng.Intn(30))
		switch kind {
		case duration.KindKWay:
			fns = append(fns, duration.NewKWay(t0))
		case duration.KindBinary:
			fns = append(fns, duration.NewRecursiveBinary(t0))
		default:
			panic("unknown kind")
		}
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
