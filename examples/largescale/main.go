// Command largescale demonstrates the scale tier end to end: it generates
// a general layered DAG with over 50,000 arcs — far beyond what the exact
// search or the dense LP can touch — solves it through the auto router
// (which dispatches to the frankwolfe envelope relaxation), and prints
// the certified quality of the answer.
//
//	go run ./examples/largescale
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/solver"
)

func main() {
	log.SetFlags(0)

	// ~53k arcs: 250 layers, width 100, 100 extra cross-layer arcs per
	// layer, up to 4 breakpoints per job.
	start := time.Now()
	inst := scenario.NewGen(1).StepInstance(250, 100, 100, 4, 40, 5)
	fmt.Printf("generated: %d nodes, %d arcs in %v\n",
		inst.G.NumNodes(), inst.G.NumEdges(), time.Since(start).Round(time.Millisecond))
	c := core.Compile(inst)
	fmt.Printf("zero-flow makespan: %d\n\n", c.ZeroFlowMakespan())

	for _, budget := range []int64{100, 500, 2000} {
		rep, err := solver.SolveCompiledOptions(context.Background(), "auto", c, solver.NewOptions(solver.WithBudget(budget)))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("budget %5d: makespan %5d using %4d units in %7v\n",
			budget, rep.Sol.Makespan, rep.Sol.Value, rep.Wall.Round(time.Millisecond))
		fmt.Printf("             certified: optimum >= %.0f, so this answer is within %.1f%% of it\n",
			rep.LPLowerBound, (rep.ApproxRatioUpperBound-1)*100)
		fmt.Printf("             routing: %s\n\n", rep.Routing)
	}
}
