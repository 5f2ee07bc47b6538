package approx

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// lpCase is one makespan relaxation to solve: a compiled instance and its
// budget.
type lpCase struct {
	c      *core.Compiled
	budget int64
}

// freshLPCases draws n instances of one duration class ("kway", "binary"
// or "step") sized like perfbench fresh's LP-routed items (kway5, binary4
// and bicriteria): 3 layers, width 3-4, 2-3 extra arcs, budgets 4-15, and
// two-tuple expansions of about 90-170 arcs (kway ~90-120, binary
// ~140-170, step ~90-130).
func freshLPCases(kind string, n int) []lpCase {
	g := scenario.NewGen(15)
	cases := make([]lpCase, n)
	for i := range cases {
		var inst *core.Instance
		switch kind {
		case "kway":
			inst = g.KWayInstance(3, 3, 2, 30)
		case "binary":
			inst = g.BinaryInstance(3, 4, 3, 24)
		case "step":
			inst = g.StepInstance(3, 4, 3, 3, 30, 4)
		default:
			panic("freshLPCases: unknown kind " + kind)
		}
		cases[i] = lpCase{c: core.Compile(inst), budget: 4 + g.Int63n(12)}
	}
	return cases
}

// sameRelaxation reports whether two solves returned the same bits.
func sameRelaxation(a, b *Relaxation) bool {
	same := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return math.Float64bits(a.Objective) == math.Float64bits(b.Objective) &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		same(a.F, b.F)
}

// TestMakespanLPConcurrentMatchesSequential solves fresh-sized relaxations
// from 8 goroutines at once, all drawing workspaces from the LP's shared
// pool and reading each shared compiled instance, and requires every
// answer to carry the bits of its sequential solve.
func TestMakespanLPConcurrentMatchesSequential(t *testing.T) {
	var cases []lpCase
	for _, kind := range []string{"kway", "binary", "step"} {
		cases = append(cases, freshLPCases(kind, 3)...)
	}
	want := make([]*Relaxation, len(cases))
	for i, tc := range cases {
		rel, err := SolveMakespanLP(context.Background(), tc.c, tc.budget)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rel
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range cases {
				i := (k + w) % len(cases)
				got, err := SolveMakespanLP(context.Background(), cases[i].c, cases[i].budget)
				if err != nil {
					t.Errorf("worker %d case %d: %v", w, i, err)
					return
				}
				if !sameRelaxation(got, want[i]) {
					t.Errorf("worker %d case %d: objective %v; sequential %v (or F differs)",
						w, i, got.Objective, want[i].Objective)
				}
			}
		}(w)
	}
	wg.Wait()
}

var sinkRelaxation *Relaxation

// BenchmarkMakespanLP times SolveMakespanLP alone on fresh-sized
// relaxations of each duration class; one op solves the class's four
// instances once each.  Compiling stays outside the timer.
func BenchmarkMakespanLP(b *testing.B) {
	for _, kind := range []string{"kway", "binary", "step"} {
		b.Run(kind, func(b *testing.B) {
			cases := freshLPCases(kind, 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, tc := range cases {
					rel, err := SolveMakespanLP(context.Background(), tc.c, tc.budget)
					if err != nil {
						b.Fatal(err)
					}
					sinkRelaxation = rel
				}
			}
		})
	}
}
