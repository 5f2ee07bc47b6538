package reduction

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
)

func TestResourceGapWitness(t *testing.T) {
	f := Formula{NumVars: 2, Clauses: []Clause{{Pos(0), Pos(1), Neg(0)}}}
	r, err := BuildResourceGap(f)
	if err != nil {
		t.Fatal(err)
	}
	assign, ok := f.Satisfiable()
	if !ok {
		t.Fatal("expected satisfiable")
	}
	flow, err := r.WitnessFlow(assign)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Inst.ValidateFlow(flow, 2); err != nil {
		t.Fatalf("witness invalid: %v", err)
	}
	m, err := core.Compile(r.Inst).Makespan(flow)
	if err != nil {
		t.Fatal(err)
	}
	if m > r.Target {
		t.Fatalf("witness makespan = %d; want <= %d", m, r.Target)
	}
}

func TestResourceGapThreeUnitFlowAlwaysWorks(t *testing.T) {
	for _, f := range []Formula{
		UnsatOneInThreeFormula(), // 3SAT-satisfiable
		unsat3SAT(),
		Figure9Formula(),
	} {
		r, err := BuildResourceGap(f)
		if err != nil {
			t.Fatal(err)
		}
		flow := r.ThreeUnitFlow()
		if err := r.Inst.ValidateFlow(flow, 3); err != nil {
			t.Fatalf("three-unit flow invalid: %v", err)
		}
		m, err := core.Compile(r.Inst).Makespan(flow)
		if err != nil {
			t.Fatal(err)
		}
		if m > r.Target {
			t.Fatalf("three-unit makespan = %d; want <= %d", m, r.Target)
		}
	}
}

// unsat3SAT returns the standard 2-variable unsatisfiable 3-CNF using
// duplicated literals: (x|x|y) (x|x|!y) (!x|!x|y) (!x|!x|!y).
func unsat3SAT() Formula {
	return Formula{
		NumVars: 2,
		Clauses: []Clause{
			{Pos(0), Pos(0), Pos(1)},
			{Pos(0), Pos(0), Neg(1)},
			{Neg(0), Neg(0), Pos(1)},
			{Neg(0), Neg(0), Neg(1)},
		},
	}
}

// TestResourceGapTheorem44 is the machine verification of the 2-vs-3
// resource gap: the exact minimum resource at the target makespan is 2
// iff the formula is satisfiable and 3 otherwise.
func TestResourceGapTheorem44(t *testing.T) {
	cases := []struct {
		name string
		f    Formula
	}{
		{"sat-simple", Formula{NumVars: 2, Clauses: []Clause{{Pos(0), Pos(1), Neg(0)}}}},
		{"sat-two-clauses", Formula{NumVars: 2, Clauses: []Clause{
			{Pos(0), Pos(1), Pos(1)},
			{Neg(0), Neg(1), Pos(0)},
		}}},
		{"unsat", unsat3SAT()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := BuildResourceGap(tc.f)
			if err != nil {
				t.Fatal(err)
			}
			sol, stats, err := exact.MinResource(context.Background(), core.Compile(r.Inst), r.Target, &exact.Options{MaxNodes: 1 << 21})
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Complete {
				t.Skipf("incomplete after %d nodes", stats.Nodes)
			}
			_, sat := tc.f.Satisfiable()
			want := int64(3)
			if sat {
				want = 2
			}
			if sol.Value != want {
				t.Fatalf("min resource = %d; want %d (sat=%v)", sol.Value, want, sat)
			}
		})
	}
}

// TestResourceGapRandom fuzzes the gap equivalence on random formulas.
func TestResourceGapRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 5; trial++ {
		f := Formula{NumVars: 2}
		for j := 0; j < 1+rng.Intn(2); j++ {
			var c Clause
			for p := range c {
				c[p] = Literal{Var: rng.Intn(2), Neg: rng.Intn(2) == 0}
			}
			f.Clauses = append(f.Clauses, c)
		}
		r, err := BuildResourceGap(f)
		if err != nil {
			t.Fatal(err)
		}
		sol, stats, err := exact.MinResource(context.Background(), core.Compile(r.Inst), r.Target, &exact.Options{MaxNodes: 1 << 21})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Complete {
			continue
		}
		_, sat := f.Satisfiable()
		want := int64(3)
		if sat {
			want = 2
		}
		if sol.Value != want {
			t.Fatalf("trial %d (%v): min resource = %d; want %d", trial, f, sol.Value, want)
		}
	}
}

func TestResourceGapValidation(t *testing.T) {
	if _, err := BuildResourceGap(Formula{NumVars: 1}); err == nil {
		t.Fatal("want error for no clauses")
	}
	r, err := BuildResourceGap(Figure9Formula())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.WitnessFlow([]bool{true}); err == nil {
		t.Fatal("want error for wrong assignment length")
	}
	if _, err := r.WitnessFlow([]bool{false, true, false}); err == nil {
		t.Fatal("want error for non-satisfying assignment")
	}
}
