// Quickstart: build a small resource-time tradeoff instance and solve it
// through the unified solver registry - exactly, approximately, and with
// the auto portfolio solver.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	rtt "repro"
)

func main() {
	// A fork-join DAG: two parallel branches of two jobs each.  Every job
	// runs in 10 time units for free, or 1 unit if given 2 resources -
	// and a unit of resource flowing down a branch serves both of its
	// jobs (reuse over a path).
	g := rtt.NewGraph()
	s := g.AddNode("s")
	a := g.AddNode("a")
	b := g.AddNode("b")
	t := g.AddNode("t")

	job := func() rtt.DurationFunc {
		fn, err := rtt.NewStep([]rtt.Tuple{{R: 0, T: 10}, {R: 2, T: 1}})
		if err != nil {
			log.Fatal(err)
		}
		return fn
	}
	var fns []rtt.DurationFunc
	for _, arc := range [][2]int{{s, a}, {a, t}, {s, b}, {b, t}} {
		g.AddEdge(arc[0], arc[1])
		fns = append(fns, job())
	}

	inst, err := rtt.NewInstance(g, fns)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("zero-resource makespan: %d\n", rtt.Compile(inst).ZeroFlowMakespan())

	ctx := context.Background()
	for _, budget := range []int64{0, 2, 4} {
		rep, err := rtt.Solve(ctx, "exact", inst, rtt.WithBudget(budget))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("budget %d: exact makespan %-3d (search nodes %d, %v)\n",
			budget, rep.Sol.Makespan, rep.Nodes, rep.Wall)
	}

	// The Theorem 3.4 bi-criteria algorithm with alpha = 1/2: it may use
	// up to twice the budget but lands within twice the LP lower bound.
	rep, err := rtt.Solve(ctx, "bicriteria", inst, rtt.WithBudget(2), rtt.WithAlpha(0.5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bi-criteria(alpha=1/2, budget 2): makespan %d using %d units (LP bound %.1f)\n",
		rep.Sol.Makespan, rep.Sol.Value, rep.LowerBound)

	// The auto portfolio solver inspects the instance and picks the
	// solver whose guarantee applies, recording the decision.
	rep, err = rtt.Solve(ctx, "auto", inst, rtt.WithBudget(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auto(budget 2): makespan %d via %q\n", rep.Sol.Makespan, rep.Routing)

	// The minimum-resource direction: how much space to reach makespan 2?
	rep, err = rtt.Solve(ctx, "exact", inst, rtt.WithTarget(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reaching makespan 2 needs %d units\n", rep.Sol.Value)
}
