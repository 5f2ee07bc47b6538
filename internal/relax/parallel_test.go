package relax

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// forceParallel lowers ParallelArcThreshold so the level-parallel gang
// engages even on tiny corpus instances, restoring it on cleanup.
func forceParallel(t *testing.T) {
	t.Helper()
	old := ParallelArcThreshold
	ParallelArcThreshold = 1
	t.Cleanup(func() { ParallelArcThreshold = old })
}

// TestParallelSweepDeterministic is the relaxation side of the determinism
// invariant ("parallelism changes when, never what"): at every gang size
// the Frank-Wolfe iteration must produce BIT-IDENTICAL results - same
// iterate trajectory (Iters), same objective and certificate to the last
// float bit, same rounded flow - because every sweep chunk writes disjoint
// entries and reads only completed levels.  Run with -race to also check
// the gang's memory discipline (this test is in the CI race job's path).
func TestParallelSweepDeterministic(t *testing.T) {
	forceParallel(t)
	for _, spec := range scenario.DefaultCorpus() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			inst, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			budget := inst.MaxUsefulBudget() / 2
			var base *Result
			for _, par := range []int{1, 2, 8} {
				s := NewSolver(core.Compile(inst))
				res, err := s.MinMakespan(context.Background(), budget, Options{Parallelism: par})
				if err != nil {
					t.Fatalf("p=%d: %v", par, err)
				}
				// The gang is capped by the widest level: width-starved
				// instances (chains) legitimately degenerate to "seq", and a
				// narrow DAG may get a smaller gang than requested.
				eff := par
				if width := core.Compile(inst).Levels().MaxWidth; eff > width {
					eff = width
				}
				wantSweep := "seq"
				if eff > 1 {
					wantSweep = fmt.Sprintf("level-par p=%d", eff)
				}
				if res.Sweep != wantSweep {
					t.Fatalf("p=%d: sweep mode %q, want %q", par, res.Sweep, wantSweep)
				}
				res.Sweep = "" // normalized: the one field allowed to differ
				if base == nil {
					base = res
					continue
				}
				if res.Iters != base.Iters {
					t.Fatalf("p=%d: %d iterations, p=1 ran %d", par, res.Iters, base.Iters)
				}
				if math.Float64bits(res.RelaxValue) != math.Float64bits(base.RelaxValue) ||
					math.Float64bits(res.LowerBound) != math.Float64bits(base.LowerBound) {
					t.Fatalf("p=%d: (relax, lb) = (%v, %v), p=1 got (%v, %v)",
						par, res.RelaxValue, res.LowerBound, base.RelaxValue, base.LowerBound)
				}
				if !reflect.DeepEqual(res.Sol, base.Sol) {
					t.Fatalf("p=%d: rounded solution diverged from p=1", par)
				}
			}
		})
	}
}

// TestParallelMinResourceDeterministic runs the target-mode binary search -
// many Frank-Wolfe solves back to back on one reused solver - across gang
// sizes and demands identical outcomes, exercising the per-solve reset of
// all iteration state (line-search rung seed included).
func TestParallelMinResourceDeterministic(t *testing.T) {
	forceParallel(t)
	for _, spec := range scenario.DefaultCorpus() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			inst, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			// Midpoint between the all-fastest floor and the zero-resource
			// makespan: reachable, but not free.
			c := core.Compile(inst)
			zero, err := c.NewSolution(make([]int64, inst.G.NumEdges()))
			if err != nil {
				t.Fatal(err)
			}
			target := c.MinMakespan + (zero.Makespan-c.MinMakespan)/2
			var base *Result
			for _, par := range []int{1, 8} {
				res, err := NewSolver(core.Compile(inst)).MinResource(context.Background(), target, Options{Parallelism: par})
				if err != nil {
					t.Fatalf("p=%d: %v", par, err)
				}
				res.Sweep = ""
				if base == nil {
					base = res
					continue
				}
				if !reflect.DeepEqual(res, base) {
					t.Fatalf("p=%d: result diverged from p=1:\n%+v\nvs\n%+v", par, res, base)
				}
			}
		})
	}
}
