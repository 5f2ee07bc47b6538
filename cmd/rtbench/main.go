// Command rtbench regenerates the paper-facing experiment summary: the
// measured approximation ratios behind Table 1, the gadget truth tables
// (Tables 2 and 3), and the reducer curves of Figures 2 and 3.  Its
// output is the paper-vs-measured comparison; no copy is committed, so
// run it to see the numbers.
//
// -parallel sizes the worker pool of the exact-optimum searches that
// anchor Table 1 and the hardness gaps (0 means GOMAXPROCS); the measured
// numbers are identical at every setting, only the wall time changes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/racesim"
	"repro/internal/reduction"
	"repro/internal/scenario"
	"repro/internal/solver"
)

var parallel = flag.Int("parallel", 0, "exact-search workers (0: GOMAXPROCS, 1: sequential)")

func main() {
	log.SetFlags(0)
	flag.Parse()
	fig2()
	fig3()
	fig45()
	table1()
	table2()
	table3()
	gaps()
}

func fig2() {
	fmt.Println("## Figure 2 - binary reducer on n = 1024 updates (self-parent variant)")
	fmt.Println("| height | space | measured time | formula ceil(n/2^h)+h+1 |")
	fmt.Println("|---|---|---|---|")
	const n = 1024
	for h := 0; h <= 6; h++ {
		tr, err := racesim.WithBinaryReducer(racesim.SingleCell(n), 0, h, racesim.SelfParent)
		if err != nil {
			log.Fatal(err)
		}
		res, err := racesim.Simulate(tr, 0)
		if err != nil {
			log.Fatal(err)
		}
		leaves := int64(1) << uint(h)
		formula := (int64(n)+leaves-1)/leaves + int64(h) + 1
		if h == 0 {
			formula = n
		}
		fmt.Printf("| %d | %d | %d | %d |\n", h, tr.NumCells-1, res.FinishTime, formula)
	}
	fmt.Println()
}

func fig3() {
	fmt.Println("## Figure 3 - Parallel-MM (n = 32) with reducers on every Z cell")
	fmt.Println("| height | extra space | time | speedup |")
	fmt.Println("|---|---|---|---|")
	mm := racesim.ParallelMM(32)
	base, err := racesim.Simulate(mm.Trace, 0)
	if err != nil {
		log.Fatal(err)
	}
	for h := 0; h <= 5; h++ {
		tr, extra, err := mm.WithReducersOnZ(h, racesim.SelfParent)
		if err != nil {
			log.Fatal(err)
		}
		res, err := racesim.Simulate(tr, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("| %d | %d | %d | %.2f |\n",
			h, extra, res.FinishTime, float64(base.FinishTime)/float64(res.FinishTime))
	}
	fmt.Println()
}

func fig45() {
	fmt.Println("## Figures 4 and 5 - the running race-DAG example")
	vi := racesim.Figure4()
	m4, err := vi.Makespan(nil)
	if err != nil {
		log.Fatal(err)
	}
	v5, err := racesim.Figure5()
	if err != nil {
		log.Fatal(err)
	}
	m5, err := v5.Makespan(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("makespan without reducers: %d (paper: 11)\n", m4)
	fmt.Printf("makespan with height-1 supernode on c: %d (paper: 10)\n\n", m5)
}

func table1() {
	fmt.Println("## Table 1 - measured approximation ratios vs exact OPT (30 random instances each)")
	fmt.Println("| algorithm | proven bound | worst measured | mean measured |")
	fmt.Println("|---|---|---|---|")
	ctx := context.Background()
	rows := []struct {
		name, bound, kind, solver string
	}{
		{"bi-criteria alpha=1/2 (Thm 3.4)", "2 OPT (2B resources)", "step", "bicriteria"},
		{"k-way 5-approx (Thm 3.9)", "5 OPT", "kway", "kway5"},
		{"binary 4-approx (Thm 3.10)", "4 OPT", "binary", "binary4"},
		{"binary (4/3, 14/5) (Thm 3.16)", "14/5 OPT (4B/3 resources)", "binary", "binarybi"},
	}
	for _, row := range rows {
		g := scenario.NewGen(99)
		worst, sum, count := 0.0, 0.0, 0
		for count < 30 {
			var inst *core.Instance
			switch row.kind {
			case "step":
				inst = g.StepInstance(2, 2, 1, 3, 9, 3)
			case "kway":
				inst = g.KWayInstance(2, 2, 1, 30)
			case "binary":
				inst = g.BinaryInstance(2, 2, 1, 30)
			}
			budget := int64(count%5 + 1)
			c := core.Compile(inst)
			opt, err := solver.SolveCompiledOptions(ctx, "exact", c, solver.NewOptions(
				solver.WithBudget(budget), solver.WithParallelism(*parallel)))
			if err != nil || !opt.Complete || opt.Sol.Makespan == 0 {
				continue
			}
			rep, err := solver.SolveCompiledOptions(ctx, row.solver, c, solver.NewOptions(
				solver.WithBudget(budget), solver.WithAlpha(0.5)))
			if err != nil {
				log.Fatal(err)
			}
			ratio := float64(rep.Sol.Makespan) / float64(opt.Sol.Makespan)
			if ratio > worst {
				worst = ratio
			}
			sum += ratio
			count++
		}
		fmt.Printf("| %s | %s | %.3f | %.3f |\n", row.name, row.bound, worst, sum/float64(count))
	}
	fmt.Println()
}

func table2() {
	fmt.Println("## Table 2 - Theorem 4.1 clause gadget event times at (C5, C6, C7)")
	fmt.Println("| Vi | Vj | Vk | C5 | C6 | C7 |")
	fmt.Println("|---|---|---|---|---|---|")
	f := reduction.Formula{NumVars: 3, Clauses: []reduction.Clause{
		{reduction.Pos(0), reduction.Pos(1), reduction.Pos(2)},
	}}
	r, err := reduction.BuildThm41(f)
	if err != nil {
		log.Fatal(err)
	}
	for mask := 7; mask >= 0; mask-- {
		assign := []bool{mask&4 != 0, mask&2 != 0, mask&1 != 0}
		row, err := r.Table2Row(0, assign)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("| %v | %v | %v | %d | %d | %d |\n",
			assign[0], assign[1], assign[2], row[0], row[1], row[2])
	}
	fmt.Println()
}

func table3() {
	fmt.Println("## Table 3 - Section 4.2 pattern-vertex earliest finish times (a = 6x+4, b = 5x+6)")
	f := reduction.Formula{NumVars: 3, Clauses: []reduction.Clause{
		{reduction.Pos(0), reduction.Pos(1), reduction.Pos(2)},
	}}
	c, err := reduction.BuildSec42(f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("x = %d, a = %d, b = %d\n", c.X, 6*c.X+4, 5*c.X+6)
	fmt.Println("| Vi | Vj | Vk | C5 | C6 | C7 |")
	fmt.Println("|---|---|---|---|---|---|")
	for mask := 7; mask >= 0; mask-- {
		assign := []bool{mask&4 != 0, mask&2 != 0, mask&1 != 0}
		tr, err := c.RoutedTrace(assign, []int{0})
		if err != nil {
			log.Fatal(err)
		}
		res, err := racesim.Simulate(tr, 0)
		if err != nil {
			log.Fatal(err)
		}
		cg := c.Cls[0]
		fmt.Printf("| %v | %v | %v | %d | %d | %d |\n",
			assign[0], assign[1], assign[2],
			res.CellFinal[cg.C5], res.CellFinal[cg.C6], res.CellFinal[cg.C7])
	}
	fmt.Println()
}

func gaps() {
	fmt.Println("## Table 1 hardness column - machine-verified gaps")
	ctx := context.Background()
	sat, err := reduction.BuildThm41(reduction.Figure9Formula())
	if err != nil {
		log.Fatal(err)
	}
	sol, err := solver.SolveCompiledOptions(ctx, "exact", core.Compile(sat.Inst), solver.NewOptions(
		solver.WithBudget(sat.Budget), solver.WithParallelism(*parallel)))
	if err != nil {
		log.Fatal(err)
	}
	unsat, err := reduction.BuildThm41(reduction.UnsatOneInThreeFormula())
	if err != nil {
		log.Fatal(err)
	}
	ok, _, _, err := exact.Feasible(ctx, core.Compile(unsat.Inst), unsat.Budget, 1,
		&exact.Options{Parallelism: *parallel})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Theorem 4.1/4.3: satisfiable OPT makespan = %d; unsatisfiable reaches 1: %v (factor-2 gap)\n", sol.Sol.Makespan, ok)

	gapSat, err := reduction.BuildResourceGap(reduction.Figure9Formula())
	if err != nil {
		log.Fatal(err)
	}
	rs, err := solver.SolveCompiledOptions(ctx, "exact", core.Compile(gapSat.Inst), solver.NewOptions(
		solver.WithTarget(gapSat.Target), solver.WithParallelism(*parallel)))
	if err != nil {
		log.Fatal(err)
	}
	gapUnsat, err := reduction.BuildResourceGap(reduction.Formula{
		NumVars: 2,
		Clauses: []reduction.Clause{
			{reduction.Pos(0), reduction.Pos(0), reduction.Pos(1)},
			{reduction.Pos(0), reduction.Pos(0), reduction.Neg(1)},
			{reduction.Neg(0), reduction.Neg(0), reduction.Pos(1)},
			{reduction.Neg(0), reduction.Neg(0), reduction.Neg(1)},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	ru, err := solver.SolveCompiledOptions(ctx, "exact", core.Compile(gapUnsat.Inst), solver.NewOptions(
		solver.WithTarget(gapUnsat.Target), solver.WithParallelism(*parallel)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Theorem 4.4: satisfiable min resource = %d; unsatisfiable = %d (factor-3/2 gap)\n", rs.Sol.Value, ru.Sol.Value)
}
