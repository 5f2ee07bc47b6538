// Pipeline solves a series-parallel workload exactly with the Section 3.4
// dynamic program and shows the full space-time tradeoff curve, comparing
// against the LP-based bi-criteria algorithm on the same instance.  Both
// run through the solver registry; the auto solver recognizes the DAG as
// series-parallel and routes to the exact DP on its own.
//
//	go run ./examples/pipeline
package main

import (
	"context"
	"fmt"
	"log"

	rtt "repro"
)

func main() {
	// A three-stage pipeline; each stage fans out into parallel workers
	// with k-way-splitting jobs of different base costs.
	stage := func(costs ...int64) *rtt.SPTree {
		t := rtt.SPLeaf(rtt.NewKWay(costs[0]))
		for _, c := range costs[1:] {
			t = rtt.SPParallel(t, rtt.SPLeaf(rtt.NewKWay(c)))
		}
		return t
	}
	tree := rtt.SPSeries(stage(100, 80), rtt.SPSeries(stage(60, 60, 60), stage(120)))

	inst, leafArc, err := tree.ToInstance()
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	const budget = 24
	fmt.Println("series-parallel pipeline: exact space-time tradeoff (Section 3.4 DP)")
	fmt.Printf("%-8s %-12s %-22s\n", "budget", "makespan", "bi-criteria makespan")
	for _, l := range []int64{0, 2, 4, 8, 12, 16, 24} {
		auto, err := rtt.Solve(ctx, "auto", inst, rtt.WithBudget(l))
		if err != nil {
			log.Fatal(err)
		}
		if l == 0 {
			fmt.Printf("(auto routing: %s)\n", auto.Routing)
		}
		bi, err := rtt.Solve(ctx, "bicriteria", inst, rtt.WithBudget(l), rtt.WithAlpha(0.5))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %-12d %d (using %d units)\n", l, auto.Sol.Makespan, bi.Sol.Makespan, bi.Sol.Value)
	}

	// The raw DP tables are still available for allocation extraction.
	tables, err := rtt.SPSolve(tree, budget)
	if err != nil {
		log.Fatal(err)
	}
	alloc, err := tables.Allocation(budget)
	if err != nil {
		log.Fatal(err)
	}
	flow, err := tables.Flow(inst, leafArc, budget)
	if err != nil {
		log.Fatal(err)
	}
	sol, err := rtt.Compile(inst).NewSolution(flow)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nat budget %d: %d leaves allocated, witness flow value %d, makespan %d\n",
		budget, len(alloc), sol.Value, sol.Makespan)

	// Round-trip: the materialized DAG is recognized as series-parallel.
	if _, ok := rtt.SPRecognize(inst); !ok {
		log.Fatal("instance should be series-parallel")
	}
	fmt.Println("instance recognized as two-terminal series-parallel")

	// The minimum-resource direction through the registry: the spdp
	// solver finds the cheapest budget reaching the target makespan.
	rep, err := rtt.Solve(ctx, "spdp", inst, rtt.WithTarget(150))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reaching makespan 150 needs %d units (makespan %d)\n", rep.Sol.Value, rep.Sol.Makespan)
}
