package solver

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// wireBytes renders a report for byte comparison, with the wall time (the
// only legitimately nondeterministic field) zeroed.
func wireBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	w := rep.Wire()
	w.WallMS = 0
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSolversFreshVsMemoizedCompiled asserts that every registered solver
// returns a byte-identical Report whether it is handed a freshly compiled
// instance or one whose lazy derivations (hash, class, envelopes,
// expansion, series-parallel recognition) were already forced by earlier
// solves: memoization must be invisible to results.  It runs over the full
// corpus catalog; solvers are skipped only where their own contract skips
// them (unsupported objective, non-series-parallel input) or where their
// dense LP would not fit (the same expansion-size gate the auto router
// applies).  Parallelism is pinned to 1: a parallel exact search's witness
// flow is legitimately schedule-dependent, and this test is about
// memoization, not scheduling.
func TestSolversFreshVsMemoizedCompiled(t *testing.T) {
	for _, spec := range scenario.DefaultCorpus() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			inst, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			opts := NewOptions()
			if spec.Budget != nil {
				opts.Budget = *spec.Budget
			} else {
				opts.Target = *spec.Target
			}
			opts.Parallelism = 1
			// Cap the exact search so the big corpus entries stay fast
			// (also under -race); a truncated search is still
			// deterministic at parallelism 1.
			opts.MaxNodes = 1024

			// The memoized compiled form: solve once with auto and
			// frankwolfe first, which forces recognition, class detection,
			// envelopes and (on dense routes) the expansion.
			warm := core.Compile(inst)
			for _, prime := range []string{"auto", "frankwolfe"} {
				if _, err := SolveCompiledOptions(context.Background(), prime, warm, opts); err != nil {
					t.Fatalf("priming %s: %v", prime, err)
				}
			}

			denseOK := warm.ExpandedArcs <= autoDenseLPArcs
			for _, s := range List() {
				if strings.HasPrefix(s.Name(), "test-") {
					continue
				}
				if ValidateOptions(s, opts) != nil {
					continue // objective unsupported; not this test's concern
				}
				if s.Capabilities().Approximate && !s.Capabilities().Parallel && !denseOK && s.Name() != "frankwolfe" {
					continue // dense simplex would not fit this instance
				}
				fresh, ferr := SolveCompiledOptions(context.Background(), s.Name(), core.Compile(inst), opts)
				memo, merr := SolveCompiledOptions(context.Background(), s.Name(), warm, opts)
				if (ferr == nil) != (merr == nil) {
					t.Fatalf("%s: fresh err %v, memoized err %v", s.Name(), ferr, merr)
				}
				if ferr != nil {
					if errors.Is(ferr, ErrNotSeriesParallel) && errors.Is(merr, ErrNotSeriesParallel) {
						continue
					}
					if ferr.Error() != merr.Error() {
						t.Fatalf("%s: fresh err %q, memoized err %q", s.Name(), ferr, merr)
					}
					continue
				}
				if a, b := wireBytes(t, fresh), wireBytes(t, memo); string(a) != string(b) {
					t.Fatalf("%s: fresh and memoized reports differ:\n%s\n%s", s.Name(), a, b)
				}
			}
		})
	}
}
