package approx

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/duration"
	"repro/internal/exact"
	"repro/internal/scenario"
)

// The differential oracle for the approximation algorithms: small
// instances drawn from every scenario family and from random layered DAGs
// of all three duration classes.  Each draw's relaxation is solved by
// SolveMakespanLP or SolveResourceLP and by the reference expanded-graph
// formulation (expandedGraphLP), and its bound and every approximation
// whose theorem covers the draw are checked against the brute-force
// optimum over the tuple assignments.

// oracleMaxSpace bounds a draw's assignment space, which is what the
// brute-force optimum enumerates.
const oracleMaxSpace = 1 << 16

// oracleRelTol is the relative slack of every comparison against an
// optimum or a reference LP value.  Its absolute twin admits the
// round-off of a relaxation whose optimum is zero.
const oracleRelTol = 1e-9

// oracleKinds are the instance sources a draw picks from: every scenario
// family, then random layered DAGs with step, k-way and binary jobs.
var oracleKinds = []string{
	"layered", "forkjoin", "randomsp", "pipeline", "diamondmesh", "matmul", "racetrace", "adversarial",
	"dag-step", "dag-kway", "dag-binary",
}

// oracleAlphas are the bi-criteria rounding parameters every draw is
// checked at.
var oracleAlphas = []float64{0.25, 0.5, 0.75}

// oracleDraw is one differential case: an instance and the objective it is
// solved under (budget mode when target < 0).
type oracleDraw struct {
	name   string
	c      *core.Compiled
	budget int64
	target int64
}

// span draws uniformly from [lo, hi].
func span(rng *rand.Rand, lo, hi int64) int64 { return lo + rng.Int63n(hi-lo+1) }

// buildOracleInstance draws one small instance of the given kind.
func buildOracleInstance(rng *rand.Rand, kind string) (*core.Instance, string, error) {
	seed := rng.Int63n(1 << 30)
	var p scenario.Params
	switch kind {
	case "dag-step", "dag-kway", "dag-binary":
		g := scenario.NewGen(seed)
		layers, width, extra := int(span(rng, 1, 3)), int(span(rng, 1, 3)), int(span(rng, 0, 3))
		name := fmt.Sprintf("%s(%d,%d,%d)/%d", kind, layers, width, extra, seed)
		switch kind {
		case "dag-step":
			return g.StepInstance(layers, width, extra, int(span(rng, 2, 4)), span(rng, 2, 40), span(rng, 1, 4)), name, nil
		case "dag-kway":
			return g.KWayInstance(layers, width, extra, span(rng, 4, 40)), name, nil
		default:
			return g.BinaryInstance(layers, width, extra, span(rng, 4, 60)), name, nil
		}
	case "layered":
		p = scenario.Params{"layers": span(rng, 1, 3), "width": span(rng, 1, 3), "extra": span(rng, 1, 3),
			"tuples": span(rng, 2, 4), "maxt0": span(rng, 2, 40), "maxr": span(rng, 1, 4)}
	case "forkjoin":
		// class 1 is k-way, 2 binary, and 3 falls to the step default.
		p = scenario.Params{"stages": span(rng, 1, 3), "width": span(rng, 1, 3), "class": span(rng, 1, 3), "maxt0": span(rng, 2, 30)}
	case "randomsp":
		p = scenario.Params{"leaves": span(rng, 2, 8), "tuples": span(rng, 2, 4), "maxt0": span(rng, 2, 40), "maxr": span(rng, 1, 4)}
	case "pipeline":
		p = scenario.Params{"lanes": span(rng, 1, 3), "stages": span(rng, 1, 3), "tuples": span(rng, 2, 3),
			"maxt0": span(rng, 2, 20), "maxr": span(rng, 1, 3)}
	case "diamondmesh":
		p = scenario.Params{"rows": 2, "cols": span(rng, 2, 3), "tuples": span(rng, 2, 3), "maxt0": span(rng, 2, 20), "maxr": span(rng, 1, 3)}
	case "matmul":
		// At these sizes no reducer offers a breakpoint (assignment space
		// 1), so these draws check the zero-choice corner.
		p = scenario.Params{"n": span(rng, 1, 2), "reducer": span(rng, 1, 2)}
	case "racetrace":
		// A cell's reducer offers a choice only from about four writers on.
		p = scenario.Params{"cells": span(rng, 2, 3), "updates": span(rng, 4, 16), "maxsrcs": span(rng, 1, 2), "reducer": span(rng, 1, 2)}
	case "adversarial":
		p = scenario.Params{"diamonds": span(rng, 1, 2), "t0": span(rng, 4, 12)}
	default:
		return nil, "", fmt.Errorf("unknown oracle kind %q", kind)
	}
	zero := int64(0)
	spec := scenario.Spec{Name: "oracle", Family: kind, Seed: seed, Params: p, Budget: &zero}
	inst, err := spec.Build()
	return inst, fmt.Sprintf("%s %v/%d", kind, p, seed), err
}

// drawOracle builds a draw of the given kind whose assignment space the
// brute force can enumerate, redrawing the instance a few times before
// giving up (ok false).  Budgets range over [0, MaxUsefulBudget]; every
// third draw is a target-mode draw with a target between the all-fastest
// floor and the zero-resource makespan.
func drawOracle(rng *rand.Rand, kind string) (oracleDraw, bool, error) {
	for attempt := 0; attempt < 8; attempt++ {
		inst, name, err := buildOracleInstance(rng, kind)
		if err != nil {
			return oracleDraw{}, false, err
		}
		c := core.Compile(inst)
		if c.AssignmentSpace > oracleMaxSpace {
			continue
		}
		d := oracleDraw{name: name, c: c, budget: -1, target: -1}
		if rng.Intn(3) == 0 {
			d.target = span(rng, c.MinMakespan, c.ZeroFlowMakespan())
			d.name += fmt.Sprintf(" target=%d", d.target)
		} else {
			d.budget = span(rng, 0, c.MaxUsefulBudget)
			d.name += fmt.Sprintf(" budget=%d", d.budget)
		}
		return d, true, nil
	}
	return oracleDraw{}, false, nil
}

// bruteMinMakespan is the optimal makespan at budget.
func bruteMinMakespan(t testing.TB, inst *core.Instance, budget int64) int64 {
	t.Helper()
	opt, ok := exact.BruteForceAssignmentsMinMakespan(inst, budget, oracleMaxSpace)
	if !ok || opt.Makespan < 0 {
		t.Fatalf("brute force found no optimum at budget %d (ok=%v)", budget, ok)
	}
	return opt.Makespan
}

// bruteMinResource is the least budget whose optimal makespan meets
// target, by binary search over budgets: the optimal makespan is
// non-increasing in the budget, and MaxUsefulBudget reaches the
// all-fastest floor.
func bruteMinResource(t testing.TB, c *core.Compiled, target int64) int64 {
	t.Helper()
	lo, hi := int64(0), c.MaxUsefulBudget
	if bruteMinMakespan(t, c.Inst, hi) > target {
		t.Fatalf("target %d unreachable at the max useful budget %d", target, hi)
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if bruteMinMakespan(t, c.Inst, mid) <= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// atMost reports whether got <= lim up to the oracle's tolerance.
func atMost(got, lim float64) bool {
	return got <= lim+oracleRelTol*math.Max(1, math.Abs(lim))
}

// checkRelaxationPoint fails t unless rel.F is a feasible flow of the
// relaxation that attains rel.Objective: within every two-tuple arc's
// resource, conserved at every internal expanded node, of value
// rel.Value, and with the fractional longest path it induces at most the
// makespan bound (makespan mode) or the target (resource mode).
func checkRelaxationPoint(t testing.TB, d oracleDraw, rel *Relaxation) {
	t.Helper()
	const tol = 1e-6
	ex := rel.Ex
	g := ex.G
	dur := make([]float64, g.NumEdges())
	for e, f := range rel.F {
		t0, r, two := edgeTwoTuple(ex.Fns[e])
		dur[e] = float64(t0)
		if two {
			if f < -tol || f > float64(r)+tol {
				t.Fatalf("%s: flow %g on arc %d outside [0, %d]", d.name, f, e, r)
			}
			dur[e] = math.Max(0, float64(t0)*(1-f/float64(r)))
		} else if f < -tol {
			t.Fatalf("%s: flow %g on constant arc %d", d.name, f, e)
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		net := 0.0
		for _, e := range g.Out(v) {
			net += rel.F[e]
		}
		for _, e := range g.In(v) {
			net -= rel.F[e]
		}
		switch {
		case v == ex.Source:
			if math.Abs(net-rel.Value) > tol*math.Max(1, rel.Value) {
				t.Fatalf("%s: source outflow %g, Value %g", d.name, net, rel.Value)
			}
		case v != ex.Sink && math.Abs(net) > tol:
			t.Fatalf("%s: expanded node %d loses %g units", d.name, v, net)
		}
	}
	topo, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	at := make([]float64, g.NumNodes())
	for _, u := range topo {
		for _, e := range g.Out(u) {
			v := g.Edge(e).To
			at[v] = math.Max(at[v], at[u]+dur[e])
		}
	}
	mk := at[ex.Sink]
	if d.target < 0 {
		if rel.Value > float64(d.budget)+tol || mk > rel.Objective+tol*math.Max(1, rel.Objective) {
			t.Fatalf("%s: flow of value %g (budget %d) has makespan %g, LP optimum %g",
				d.name, rel.Value, d.budget, mk, rel.Objective)
		}
		return
	}
	if mk > float64(d.target)+tol || math.Abs(rel.Value-rel.Objective) > tol*math.Max(1, rel.Objective) {
		t.Fatalf("%s: flow of value %g (optimum %g) has makespan %g, target %d",
			d.name, rel.Value, rel.Objective, mk, d.target)
	}
}

// checkApproxOracle fails t on a relaxation that disagrees with the
// reference formulation or whose bound the brute-force optimum
// contradicts, and on any approximation outside its theorem's guarantee
// or returning an invalid flow.  It returns the names of the algorithms
// it checked.
func checkApproxOracle(t testing.TB, d oracleDraw) []string {
	t.Helper()
	ctx := context.Background()
	c, inst := d.c, d.c.Inst
	var rel, ref *Relaxation
	var err error
	if d.target < 0 {
		rel, err = SolveMakespanLP(ctx, c, d.budget)
		if err == nil {
			ref, err = expandedGraphLP(ctx, c, float64(d.budget), -1)
		}
	} else {
		rel, err = SolveResourceLP(ctx, c, d.target)
		if err == nil {
			ref, err = expandedGraphLP(ctx, c, -1, float64(d.target))
		}
	}
	if err != nil {
		t.Fatalf("%s: %v", d.name, err)
	}
	if math.Abs(rel.Objective-ref.Objective) > oracleRelTol*math.Max(1, math.Abs(ref.Objective)) {
		t.Errorf("%s: LP optimum %.17g, expanded-graph LP %.17g", d.name, rel.Objective, ref.Objective)
	}
	checkRelaxationPoint(t, d, rel)

	var checked []string
	validate := func(name string, sol core.Solution) {
		if err := inst.ValidateFlow(sol.Flow, -1); err != nil {
			t.Errorf("%s %s: invalid flow: %v", d.name, name, err)
		}
		checked = append(checked, name)
	}
	if d.target >= 0 {
		opt := bruteMinResource(t, c, d.target)
		if !atMost(rel.Objective, float64(opt)) {
			t.Errorf("%s: LP resource bound %.9g exceeds the optimum %d", d.name, rel.Objective, opt)
		}
		for _, alpha := range oracleAlphas {
			res, err := BiCriteriaResource(ctx, c, d.target, alpha)
			if err != nil {
				t.Fatalf("%s bicriteria-resource alpha=%v: %v", d.name, alpha, err)
			}
			if !atMost(float64(res.Sol.Value), float64(opt)/(1-alpha)) || !atMost(float64(res.Sol.Makespan), float64(d.target)/alpha) {
				t.Errorf("%s bicriteria-resource alpha=%v: %d resources (optimum %d), makespan %d (target %d)",
					d.name, alpha, res.Sol.Value, opt, res.Sol.Makespan, d.target)
			}
			validate("bicriteria-resource", res.Sol)
		}
		return checked
	}

	opt := bruteMinMakespan(t, inst, d.budget)
	if !atMost(rel.Objective, float64(opt)) {
		t.Errorf("%s: LP makespan bound %.9g exceeds the optimum %d", d.name, rel.Objective, opt)
	}
	b := float64(d.budget)
	for _, alpha := range oracleAlphas {
		res, err := BiCriteria(ctx, c, d.budget, alpha)
		if err != nil {
			t.Fatalf("%s bicriteria alpha=%v: %v", d.name, alpha, err)
		}
		if !atMost(float64(res.Sol.Makespan), float64(opt)/alpha) || !atMost(float64(res.Sol.Value), b/(1-alpha)) {
			t.Errorf("%s bicriteria alpha=%v: makespan %d (optimum %d), %d resources",
				d.name, alpha, res.Sol.Makespan, opt, res.Sol.Value)
		}
		validate("bicriteria", res.Sol)
	}
	// The class-restricted theorems, on the draws their solvers accept.
	class := c.Class()
	type single struct {
		name  string
		class string
		run   func(context.Context, *core.Compiled, int64) (*Result, error)
		ratio float64
		spend float64 // resources allowed, as a multiple of the budget
	}
	for _, s := range []single{
		{"kway5", duration.KindKWay, KWay5, 5, 1},
		{"binary4", duration.KindBinary, Binary4, 4, 1},
		{"binarybi", duration.KindBinary, BinaryBiCriteria, 14.0 / 5, 4.0 / 3},
	} {
		if class != s.class && class != duration.KindConst {
			continue
		}
		res, err := s.run(ctx, c, d.budget)
		if err != nil {
			t.Fatalf("%s %s: %v", d.name, s.name, err)
		}
		if !atMost(float64(res.Sol.Makespan), s.ratio*float64(opt)) || !atMost(float64(res.Sol.Value), s.spend*b) {
			t.Errorf("%s %s: makespan %d (optimum %d), %d resources (budget %d)",
				d.name, s.name, res.Sol.Makespan, opt, res.Sol.Value, d.budget)
		}
		validate(s.name, res.Sol)
	}
	return checked
}

// TestApproximationOracle is the seeded run of the differential oracle:
// every relaxation matches the reference formulation and lower-bounds the
// brute-force optimum, and every approximation meets its theorem's
// makespan and resource guarantee with a valid flow.  Each class-
// restricted algorithm must be checked somewhere in the run.
func TestApproximationOracle(t *testing.T) {
	draws := 176
	if testing.Short() {
		draws = 44
	}
	rng := rand.New(rand.NewSource(20261019))
	seen := map[string]int{}
	for i := 0; i < draws; i++ {
		d, ok, err := drawOracle(rng, oracleKinds[i%len(oracleKinds)])
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		if !ok {
			continue
		}
		for _, name := range checkApproxOracle(t, d) {
			seen[name]++
		}
	}
	t.Logf("checks by algorithm: %v", seen)
	for _, name := range []string{"bicriteria", "bicriteria-resource", "kway5", "binary4", "binarybi"} {
		if seen[name] == 0 {
			t.Errorf("no draw checked %s in %d draws", name, draws)
		}
	}
}

// FuzzApproximationOracle runs the differential oracle on fuzzer-chosen
// draws: kind picks the instance source (every scenario family, then
// random layered DAGs), seed drives the draw.
func FuzzApproximationOracle(f *testing.F) {
	for i := range oracleKinds {
		f.Add(uint8(i), int64(i+1))
	}
	f.Fuzz(func(t *testing.T, kind uint8, seed int64) {
		d, ok, err := drawOracle(rand.New(rand.NewSource(seed)), oracleKinds[int(kind)%len(oracleKinds)])
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			checkApproxOracle(t, d)
		}
	})
}
