package reduction

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
)

func TestSatBruteForce(t *testing.T) {
	f := Figure9Formula()
	assign, ok := f.OneInThreeSatisfiable()
	if !ok {
		t.Fatal("Figure 9 formula should be 1-in-3 satisfiable")
	}
	// The paper's stated witness: V1 = TRUE, V2 = TRUE, V3 = FALSE.
	if !assign[0] || !assign[1] || assign[2] {
		// Any valid witness is fine, but check it truly works.
		for _, c := range f.Clauses {
			if c.trueCount(assign) != 1 {
				t.Fatalf("witness %v invalid", assign)
			}
		}
	}
	if _, ok := UnsatOneInThreeFormula().OneInThreeSatisfiable(); ok {
		t.Fatal("unsat formula reported satisfiable")
	}
	if _, ok := UnsatOneInThreeFormula().Satisfiable(); !ok {
		t.Fatal("the 1-in-3-unsat formula is still 3SAT-satisfiable")
	}
}

func TestFormulaValidate(t *testing.T) {
	if err := (Formula{NumVars: 0}).Validate(); err == nil {
		t.Fatal("want error for zero variables")
	}
	bad := Formula{NumVars: 1, Clauses: []Clause{{Pos(0), Pos(3), Pos(0)}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("want error for out-of-range variable")
	}
}

func TestThm41WitnessAchievesTarget(t *testing.T) {
	f := Figure9Formula()
	r, err := BuildThm41(f)
	if err != nil {
		t.Fatal(err)
	}
	assign, ok := f.OneInThreeSatisfiable()
	if !ok {
		t.Fatal("expected satisfiable")
	}
	flow, err := r.WitnessFlow(assign)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Inst.ValidateFlow(flow, r.Budget); err != nil {
		t.Fatalf("witness flow invalid: %v", err)
	}
	m, err := core.Compile(r.Inst).Makespan(flow)
	if err != nil {
		t.Fatal(err)
	}
	if m != r.Target {
		t.Fatalf("witness makespan = %d; want %d", m, r.Target)
	}
	if got := r.Inst.FlowValue(flow); got != r.Budget {
		t.Fatalf("witness uses %d units; budget %d", got, r.Budget)
	}
}

// TestThm41Equivalence is the machine proof of Lemma 4.2 on small
// formulas: budget n+2m reaches makespan 1 iff the formula is 1-in-3
// satisfiable, decided by the exact solver with no knowledge of the
// construction.
func TestThm41Equivalence(t *testing.T) {
	cases := []struct {
		name string
		f    Formula
	}{
		{"figure9-sat", Figure9Formula()},
		{"unsat-pair", UnsatOneInThreeFormula()},
		{"single-clause", Formula{NumVars: 3, Clauses: []Clause{{Pos(0), Pos(1), Pos(2)}}}},
		{"two-neg", Formula{NumVars: 2, Clauses: []Clause{{Neg(0), Neg(1), Pos(0)}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := BuildThm41(tc.f)
			if err != nil {
				t.Fatal(err)
			}
			_, want := tc.f.OneInThreeSatisfiable()
			got, _, stats, err := exact.Feasible(context.Background(), core.Compile(r.Inst), r.Budget, r.Target, &exact.Options{MaxNodes: 1 << 21})
			if errors.Is(err, exact.ErrTruncated) {
				t.Skipf("undecided after %d nodes", stats.Nodes)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Complete && !got {
				t.Skipf("search incomplete after %d nodes", stats.Nodes)
			}
			if got != want {
				t.Fatalf("feasible = %v; 1-in-3 satisfiable = %v", got, want)
			}
		})
	}
}

// TestThm41RandomFormulas fuzzes the equivalence on random tiny formulas.
func TestThm41RandomFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 6; trial++ {
		f := Formula{NumVars: 3}
		for j := 0; j < 1+rng.Intn(2); j++ {
			var c Clause
			for p := range c {
				c[p] = Literal{Var: rng.Intn(3), Neg: rng.Intn(2) == 0}
			}
			f.Clauses = append(f.Clauses, c)
		}
		r, err := BuildThm41(f)
		if err != nil {
			t.Fatal(err)
		}
		_, want := f.OneInThreeSatisfiable()
		got, _, stats, err := exact.Feasible(context.Background(), core.Compile(r.Inst), r.Budget, r.Target, &exact.Options{MaxNodes: 1 << 21})
		if errors.Is(err, exact.ErrTruncated) {
			t.Logf("trial %d: undecided after %d nodes, skipping", trial, stats.Nodes)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Complete && !got {
			t.Logf("trial %d: incomplete search, skipping", trial)
			continue
		}
		if got != want {
			t.Fatalf("trial %d (%v): feasible = %v; satisfiable = %v", trial, f, got, want)
		}
	}
}

// TestTheorem43Gap exhibits the factor-2 makespan gap: a satisfiable
// instance has optimal makespan 1 under its budget, an unsatisfiable one
// at least 2.
func TestTheorem43Gap(t *testing.T) {
	sat, err := BuildThm41(Figure9Formula())
	if err != nil {
		t.Fatal(err)
	}
	sol, stats, err := exact.MinMakespan(context.Background(), core.Compile(sat.Inst), sat.Budget, &exact.Options{MaxNodes: 1 << 21})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Makespan != 1 {
		t.Fatalf("satisfiable instance OPT = %d (complete=%v); want 1", sol.Makespan, stats.Complete)
	}

	unsat, err := BuildThm41(UnsatOneInThreeFormula())
	if err != nil {
		t.Fatal(err)
	}
	ok, _, stats2, err := exact.Feasible(context.Background(), core.Compile(unsat.Inst), unsat.Budget, 1, &exact.Options{MaxNodes: 1 << 21})
	if errors.Is(err, exact.ErrTruncated) {
		t.Skipf("undecided after %d nodes", stats2.Nodes)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !stats2.Complete {
		t.Skip("search incomplete")
	}
	if ok {
		t.Fatal("unsatisfiable instance reached makespan 1: gap broken")
	}
}

// TestTable2 regenerates Table 2: the pattern-vertex event times for every
// assignment of a single positive clause (Vi or Vj or Vk).
func TestTable2(t *testing.T) {
	f := Formula{NumVars: 3, Clauses: []Clause{{Pos(0), Pos(1), Pos(2)}}}
	r, err := BuildThm41(f)
	if err != nil {
		t.Fatal(err)
	}
	// Table 2 rows keyed by (Vi, Vj, Vk); entries are (C5, C6, C7).
	want := map[[3]bool][3]int64{
		{true, true, true}:    {1, 1, 1},
		{false, true, true}:   {1, 1, 1},
		{true, false, true}:   {1, 1, 1},
		{true, true, false}:   {1, 1, 1},
		{false, false, true}:  {0, 1, 1},
		{false, true, false}:  {1, 0, 1},
		{true, false, false}:  {1, 1, 0},
		{false, false, false}: {1, 1, 1},
	}
	for assign, row := range want {
		got, err := r.Table2Row(0, assign[:])
		if err != nil {
			t.Fatal(err)
		}
		if got != row {
			t.Fatalf("assignment %v: (C5,C6,C7) = %v; want %v", assign, got, row)
		}
	}
}

func TestThm41WitnessRejectsBadAssignment(t *testing.T) {
	r, err := BuildThm41(Figure9Formula())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.WitnessFlow([]bool{true}); err == nil {
		t.Fatal("want error for wrong assignment length")
	}
	// All-true makes two literals of clause 1 true: not a 1-in-3 witness.
	if _, err := r.WitnessFlow([]bool{true, true, true}); err == nil {
		t.Fatal("want error for non-satisfying assignment")
	}
}
