package solver

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/duration"
	"repro/internal/scenario"
)

// provenRatioCap returns the theorem-backed makespan-vs-relaxation cap a
// solver must honor on instances inside its duration class, or 0 when no
// single-criteria cap applies.  The bi-criteria solvers prove makespan <=
// relax/alpha (alpha defaults to 1/2 here), kway5 and binary4 prove their
// constants against the LP bound (Theorems 3.9 and 3.10 bound the rounded
// makespan by 5 resp. 4 times the LP optimum), and binarybi proves 14/5
// (Theorem 3.16).
func provenRatioCap(name string) float64 {
	switch name {
	case "bicriteria", "bicriteria-resource", "frankwolfe":
		return 2 // 1/alpha at the 0.5 default
	case "kway5":
		return 5
	case "binary4":
		return 4
	case "binarybi":
		return 14.0 / 5
	}
	return 0
}

// TestApproximationSolverProperties is the randomized quality property of
// the scale tier: across scenario draws from every family, every solver
// with Caps.Approximate must report a consistent certificate -
//
//   - the reported ratio equals metric / LPLowerBound;
//   - metric <= LPLowerBound * ApproxRatioUpperBound (the recorded bound
//     really bounds the solution);
//   - a budget-RESPECTING solution's makespan is >= LPLowerBound (the
//     certificate is sound; overspending bi-criteria solutions may beat
//     the budget-B bound, so the check is conditional);
//   - on instances inside the solver's duration class, the reported
//     makespan respects the proven theorem cap relative to the
//     relaxation bound.
func TestApproximationSolverProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	famNames := []string{"layered", "forkjoin", "randomsp", "pipeline", "diamondmesh", "racetrace", "adversarial"}
	const draws = 18
	for i := 0; i < draws; i++ {
		spec := scenario.Spec{
			Name:   "prop",
			Family: famNames[i%len(famNames)],
			Seed:   rng.Int63n(1 << 30),
		}
		budget := 1 + rng.Int63n(12)
		spec.Budget = &budget
		inst, err := spec.Build()
		if err != nil {
			t.Fatalf("draw %d (%s): %v", i, spec.Family, err)
		}
		class := duration.Classify(inst.Fns)
		for _, s := range List() {
			caps := s.Capabilities()
			if !caps.Approximate || !caps.Budget {
				continue
			}
			// The dense-LP class solvers are exercised only in class (out
			// of class their guarantee is void and their LP can still be
			// big); bicriteria and frankwolfe run on everything small
			// enough.
			if caps.Classes != nil && !caps.SupportsClass(class) {
				continue
			}
			if s.Name() != "frankwolfe" && inst.G.NumEdges() > 80 {
				continue // keep the dense simplex off the big draws
			}
			rep, err := solveInst(context.Background(), s.Name(), inst, WithBudget(budget))
			if err != nil {
				t.Fatalf("draw %d (%s) %s: %v", i, spec.Family, s.Name(), err)
			}
			lb, ratio := rep.LPLowerBound, rep.ApproxRatioUpperBound
			metric := float64(rep.Sol.Makespan)
			if metric == 0 {
				if ratio != 1 {
					t.Errorf("draw %d %s: zero makespan with ratio %v", i, s.Name(), ratio)
				}
				continue
			}
			if lb <= 0 {
				// No certificate claimed; nothing to verify, but the report
				// must not fabricate a ratio.
				if ratio != 0 {
					t.Errorf("draw %d %s: ratio %v without a bound", i, s.Name(), ratio)
				}
				continue
			}
			if math.Abs(ratio*lb-metric) > 1e-6*math.Max(1, metric) {
				t.Errorf("draw %d %s: ratio %v inconsistent with makespan %v / bound %v",
					i, s.Name(), ratio, metric, lb)
			}
			if metric > lb*ratio+1e-6 {
				t.Errorf("draw %d %s: makespan %v exceeds bound*ratio %v", i, s.Name(), metric, lb*ratio)
			}
			if rep.Sol.Value <= budget && metric < lb-1e-6 {
				t.Errorf("draw %d %s: budget-respecting makespan %v beats the certified bound %v (unsound certificate)",
					i, s.Name(), metric, lb)
			}
			// The theorem caps compare against the solver's own LP
			// optimum, which for the dense-LP solvers is exactly
			// LPLowerBound.  frankwolfe is excluded: its LowerBound folds
			// in the combinatorial budget floor, which can exceed its
			// relaxation value, so the 1/alpha cap is not checkable from
			// the report alone (the relax package tests it directly).
			if ratioCap := provenRatioCap(s.Name()); ratioCap > 0 && s.Name() != "frankwolfe" {
				if metric > ratioCap*lb*(1+1e-9)+1e-6 {
					t.Errorf("draw %d %s: makespan %v breaks the proven %.2fx cap against the LP bound %v",
						i, s.Name(), metric, ratioCap, lb)
				}
			}
		}
	}
}
