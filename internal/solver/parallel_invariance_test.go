package solver

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// exactWireBytes renders an exact report for cross-parallelism byte
// comparison.  Wall time is zeroed (measured, not computed), and so are
// the fields that depend on the schedule, for reasons the exact package
// documents:
//
//   - nodes: a parallel branch-and-bound's pruning depends on WHEN the
//     incumbent improves, so the work done is schedule-dependent even
//     though the result is not; the count is effort accounting, like
//     wall_ms, not part of the answer.
//   - the witness: when several flows are optimal, which one the
//     strictly-improving incumbent ends up holding depends on visit order
//     ("the witness flow may differ when several flows are optimal" — the
//     package contract, and the reason Parallelism is part of the result
//     cache key).  That covers its flow and its metric the optimum does
//     not fix: resources in budget mode, makespan in target mode.  The
//     witness is checked separately for validity and optimality instead;
//     the objective and bound fields it certifies are compared.
func exactWireBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	w := rep.Wire()
	w.WallMS = 0
	w.Nodes = 0
	w.Flow = nil
	if rep.Objective == MinMakespan {
		w.Resources = 0
	} else {
		w.Makespan = 0
	}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestParallelismInvariantWireReports is the corpus-wide determinism
// property behind the "parallelism changes when, never what" contract,
// checked at Parallelism 1, 2 and 8 for exact, the one solver that
// spends the option on its own search: reports must be byte-identical in
// every answer field (optimum, bounds, guarantee, exactness,
// completeness), and every run's witness flow must be a valid
// budget-feasible (or target-meeting) solution; the witness itself and
// the node count are schedule-dependent (see exactWireBytes) and are
// normalized out.  Runs that hit the node cap are skipped, not compared:
// a truncated search's best-so-far legitimately depends on which
// subtrees the budget covered.
func TestParallelismInvariantWireReports(t *testing.T) {
	levels := []int{1, 2, 8}
	for _, spec := range scenario.DefaultCorpus() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			inst, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			warm := core.Compile(inst)
			opts := NewOptions()
			if spec.Budget != nil {
				opts.Budget = *spec.Budget
			} else {
				opts.Target = *spec.Target
			}
			opts.MaxNodes = 20000

			var want []byte
			for _, par := range levels {
				o := opts
				o.Parallelism = par
				rep, err := SolveCompiledOptions(context.Background(), "exact", warm, o)
				if err != nil {
					t.Fatalf("exact p=%d: %v", par, err)
				}
				if !rep.Complete {
					t.Logf("exact p=%d truncated at the node cap; skipping the exact comparison", par)
					break
				}
				budget := int64(-1)
				if spec.Budget != nil {
					budget = *spec.Budget
				}
				if err := inst.ValidateFlow(rep.Sol.Flow, budget); err != nil {
					t.Fatalf("exact p=%d: witness flow invalid: %v", par, err)
				}
				if spec.Target != nil && rep.Sol.Makespan > *spec.Target {
					t.Fatalf("exact p=%d: witness makespan %d misses target %d",
						par, rep.Sol.Makespan, *spec.Target)
				}
				got := exactWireBytes(t, rep)
				if want == nil {
					want = got
				} else if string(got) != string(want) {
					t.Fatalf("exact report changed at parallelism %d:\np=1: %s\np=%d: %s",
						par, want, par, got)
				}
			}
		})
	}
}

// TestParallelismRejectedOrInvariant closes the quantifier over the
// registry: every solver either honors parallelism with invariant results
// (exact — covered above), is the documented exception (auto,
// whose opt-in racing mode makes the ROUTING schedule-dependent: the
// winner's name and guarantee reach the report, which is exactly why
// Parallelism sits in the result cache key), or must refuse
// Parallelism > 1 so "identical across parallelism levels" holds by
// explicit rejection rather than silently ignoring the option.
func TestParallelismRejectedOrInvariant(t *testing.T) {
	covered := map[string]bool{"exact": true, "auto": true}
	opts := NewOptions()
	opts.Budget = 2
	opts.Parallelism = 4
	for _, s := range List() {
		name := s.Name()
		if covered[name] || strings.HasPrefix(name, "test-") {
			continue
		}
		if s.Capabilities().Parallel {
			t.Errorf("%s declares Parallel but has no cross-parallelism invariance coverage; extend TestParallelismInvariantWireReports", name)
			continue
		}
		if err := ValidateOptions(s, opts); err == nil {
			t.Errorf("%s is single-threaded yet accepted Parallelism 4", name)
		}
	}
}
