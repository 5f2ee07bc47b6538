package relax

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/scenario"
)

// The differential oracle for the scale tier: small instances drawn from
// every scenario family and from random layered DAGs of all three
// duration classes, solved by Frank-Wolfe and by brute force over the
// tuple assignments.  Every draw is solved twice, at the default
// tolerance and at a near-zero one that leaves the stall stop, the
// oracle stop or the cap to end the iteration.

// oracleMaxSpace bounds a draw's assignment space, which is what the
// brute-force optimum enumerates.
const oracleMaxSpace = 1 << 16

// nearZeroTol is a gap tolerance the duality gap never closes to.
const nearZeroTol = 1e-300

// oracleKinds are the instance sources a draw picks from: every scenario
// family, then random layered DAGs with step, k-way and binary jobs.
var oracleKinds = []string{
	"layered", "forkjoin", "randomsp", "pipeline", "diamondmesh", "matmul", "racetrace", "adversarial",
	"dag-step", "dag-kway", "dag-binary",
}

// oracleDraw is one differential case: an instance and the objective it is
// solved under (budget mode when target < 0).
type oracleDraw struct {
	name   string
	inst   *core.Instance
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
		d := oracleDraw{name: name, inst: inst, budget: -1, target: -1}
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

// checkOracle solves d at the default and at the near-zero tolerance and
// fails t on any bound the brute-force optimum contradicts, or on a
// stall-stopped budget-mode solve that is not the prefix of the same
// solve capped at its own iteration count.  It returns how many of the
// solves ended on each stop rule.
func checkOracle(t testing.TB, d oracleDraw) map[Stop]int {
	t.Helper()
	ctx := context.Background()
	c := core.Compile(d.inst)
	stops := map[Stop]int{}
	var opt int64
	if d.target < 0 {
		opt = bruteMinMakespan(t, d.inst, d.budget)
	} else {
		opt = bruteMinResource(t, c, d.target)
	}
	for _, tol := range []float64{0, nearZeroTol} {
		o := Options{tol: tol}
		if d.target >= 0 {
			res, err := NewSolver(c).MinResource(ctx, d.target, o)
			if err != nil {
				t.Fatalf("%s tol=%g: %v", d.name, tol, err)
			}
			stops[res.Stop]++
			if res.LowerBound > float64(opt)*(1+1e-9) {
				t.Errorf("%s tol=%g: certified resource bound %.9g exceeds the optimum %d (%d iters, stop %v)",
					d.name, tol, res.LowerBound, opt, res.Iters, res.Stop)
			}
			if res.Sol.Makespan > d.target {
				t.Errorf("%s tol=%g: makespan %d misses the target", d.name, tol, res.Sol.Makespan)
			}
			if res.Sol.Value < opt {
				t.Errorf("%s tol=%g: resources %d beat the optimum %d", d.name, tol, res.Sol.Value, opt)
			}
			continue
		}
		res, err := NewSolver(c).MinMakespan(ctx, d.budget, o)
		if err != nil {
			t.Fatalf("%s tol=%g: %v", d.name, tol, err)
		}
		stops[res.Stop]++
		if res.LowerBound > float64(opt)*(1+1e-9) {
			t.Errorf("%s tol=%g: certified bound %.9g exceeds the optimum %d (%d iters, stop %v)",
				d.name, tol, res.LowerBound, opt, res.Iters, res.Stop)
		}
		if res.Sol.Value <= d.budget && res.Sol.Makespan < opt {
			t.Errorf("%s tol=%g: makespan %d at %d resources beats the optimum %d",
				d.name, tol, res.Sol.Makespan, res.Sol.Value, opt)
		}
		if err := d.inst.ValidateFlow(res.Sol.Flow, -1); err != nil {
			t.Errorf("%s tol=%g: invalid flow: %v", d.name, tol, err)
		}
		if res.Stop == StopStall {
			o.maxIters = res.Iters
			capped, err := NewSolver(c).MinMakespan(ctx, d.budget, o)
			if err != nil {
				t.Fatalf("%s tol=%g capped at %d: %v", d.name, tol, res.Iters, err)
			}
			sameResult(t, fmt.Sprintf("%s tol=%g: stall-stopped solve vs the same solve capped at %d", d.name, tol, res.Iters), res, capped)
		}
	}
	return stops
}

// TestFrankWolfeOracle is the seeded run of the differential oracle: the
// certified bound never exceeds the brute-force optimum, a budget-
// respecting rounded makespan never beats it, target mode meets its
// target with no fewer resources than the optimum, and a stall-stopped
// solve is bit-identical to the same solve capped at its own iteration
// count.  The near-zero-tolerance solves must reach the stall stop
// somewhere in the run, or the stop would go unchecked.
func TestFrankWolfeOracle(t *testing.T) {
	draws := 176
	if testing.Short() {
		draws = 44
	}
	rng := rand.New(rand.NewSource(20261018))
	total := map[Stop]int{}
	for i := 0; i < draws; i++ {
		d, ok, err := drawOracle(rng, oracleKinds[i%len(oracleKinds)])
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		if !ok {
			continue
		}
		for stop, n := range checkOracle(t, d) {
			total[stop] += n
		}
	}
	t.Logf("solves by stop: %v", total)
	if total[StopStall] == 0 {
		t.Errorf("no solve stall-stopped in %d draws: the stall stop went unchecked", draws)
	}
}

// FuzzFrankWolfeBounds runs the differential oracle on fuzzer-chosen
// draws: kind picks the instance source (every scenario family, then
// random layered DAGs), seed drives the draw.
func FuzzFrankWolfeBounds(f *testing.F) {
	for i := range oracleKinds {
		f.Add(uint8(i), int64(i+1))
	}
	f.Fuzz(func(t *testing.T, kind uint8, seed int64) {
		d, ok, err := drawOracle(rand.New(rand.NewSource(seed)), oracleKinds[int(kind)%len(oracleKinds)])
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			checkOracle(t, d)
		}
	})
}

// TestCapRegimeStops pins the stall stop on the fresh-sized draws where
// the duality gap does not close within the 2,400-iteration cap (the
// instances of BenchmarkFrankWolfeCapRegime): the solve must end on the
// stall stop, never on the cap.
func TestCapRegimeStops(t *testing.T) {
	for _, tc := range []struct {
		seed, budget int64
	}{{1, 27}, {6, 20}} {
		budget := tc.budget
		spec := scenario.Spec{Name: "cap-regime", Family: "layered", Seed: tc.seed,
			Params: scenario.Params{"layers": 8, "width": 8, "extra": 6, "tuples": 8, "maxt0": 60, "maxr": 4},
			Budget: &budget}
		inst, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := NewSolver(core.Compile(inst)).MinMakespan(context.Background(), budget, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stop != StopStall {
			t.Errorf("seed %d budget %d: ended on %v after %d iterations; want the stall stop", tc.seed, budget, res.Stop, res.Iters)
		}
	}
}
