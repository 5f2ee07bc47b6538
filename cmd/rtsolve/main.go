// Command rtsolve solves a resource-time tradeoff instance from JSON
// through the unified solver registry.
//
//	rtsolve -in instance.json -budget 8                  # auto-dispatch
//	rtsolve -in instance.json -budget 8 -algo bicriteria [-alpha 0.5]
//	rtsolve -in instance.json -target 20 -algo exact [-deadline 30s]
//	rtsolve -in instance.json -budget 8 -algo exact -parallel 4
//	rtsolve -in instance.json -frontier 0:10             # tradeoff curve
//	rtsolve -in instance.json -frontier 0:10:6 -server http://localhost:8080
//	rtsolve -list                                        # solver table
//
// -frontier lo:hi[:steps] sweeps the budget range through rtserve's
// frontier sweep (service.Server.Frontier) and prints the resource-time
// tradeoff curve: the instance compiles once and each solve warm-starts
// from its smaller-budget neighbor's witness.  Without -server the sweep
// runs on an in-process server; with -server it runs remotely through
// POST /v1/frontier, sharing that service's caches and durable store.
// Both modes validate the range the same way and print the same table.
//
// -parallel sets the exact branch-and-bound's worker count (0 means
// GOMAXPROCS, 1 searches on one goroutine) and, at 2 or more, arms auto's
// option to race exact against the bi-criteria rounding near the
// exact-search threshold.
//
// With -budget the makespan is minimized; with -target the resource
// usage is minimized.  The registry rejects unsupported combinations up
// front (e.g. -target with kway5, which only minimizes makespan under a
// budget) instead of silently falling through.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/solver"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtsolve: ")
	in := flag.String("in", "", "instance JSON file (required)")
	budget := flag.Int64("budget", -1, "resource budget (minimize makespan)")
	target := flag.Int64("target", -1, "makespan target (minimize resources)")
	algo := flag.String("algo", "auto", "solver name; see -list")
	alpha := flag.Float64("alpha", 0.5, "alpha for the bi-criteria solvers")
	maxNodes := flag.Int("maxnodes", 0, "search-node budget for exact (0: default)")
	parallel := flag.Int("parallel", 0, "exact search workers (0: GOMAXPROCS, 1: sequential); 2+ also lets auto race exact")
	deadline := flag.Duration("deadline", 0, "wall-time limit (e.g. 30s; 0: none)")
	frontier := flag.String("frontier", "", "budget sweep lo:hi[:steps]; prints the tradeoff curve")
	server := flag.String("server", "", "rtserve base URL; runs the -frontier sweep remotely")
	list := flag.Bool("list", false, "list registered solvers and exit")
	flag.Parse()

	if *list {
		listSolvers()
		return
	}
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *frontier != "" {
		if *budget >= 0 || *target >= 0 {
			log.Fatal("-frontier supplies its own budgets; drop -budget/-target")
		}
		if err := runFrontier(os.Stdout, *in, *frontier, *algo, *server, *alpha, *maxNodes, *parallel); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *server != "" {
		log.Fatal("-server currently applies to -frontier sweeps only")
	}
	if (*budget < 0) == (*target < 0) {
		log.Fatal("exactly one of -budget or -target is required")
	}

	data, err := os.ReadFile(*in)
	if err != nil {
		log.Fatal(err)
	}
	var inst core.Instance
	if err := inst.UnmarshalJSON(data); err != nil {
		log.Fatal(err)
	}
	c := core.Compile(&inst)
	fmt.Printf("instance: %d nodes, %d arcs, zero-flow makespan %d\n",
		inst.G.NumNodes(), inst.G.NumEdges(), c.ZeroFlowMakespan())

	opts := []solver.Option{
		solver.WithAlpha(*alpha),
		solver.WithMaxNodes(*maxNodes),
		solver.WithParallelism(*parallel),
	}
	if *budget >= 0 {
		opts = append(opts, solver.WithBudget(*budget))
	} else {
		opts = append(opts, solver.WithTarget(*target))
	}
	if *deadline > 0 {
		opts = append(opts, solver.WithDeadline(time.Now().Add(*deadline)))
	}

	rep, err := solver.SolveCompiledOptions(context.Background(), *algo, c, solver.NewOptions(opts...))
	if err != nil {
		if rep == nil {
			log.Fatal(err)
		}
		// Interrupted with a partial solution in hand: report it, but
		// exit distinctly so scripts can tell partial from complete.
		fmt.Printf("interrupted: %v\n", err)
		printReport(rep)
		os.Exit(3)
	}
	printReport(rep)
}

func printReport(rep *solver.Report) {
	fmt.Printf("solution: makespan %d, resources %d\n", rep.Sol.Makespan, rep.Sol.Value)
	fmt.Printf("solver:   %s (%s)\n", rep.Solver, rep.Guarantee)
	if rep.Routing != "" {
		fmt.Printf("routing:  %s\n", rep.Routing)
	}
	if rep.LowerBound > 0 {
		fmt.Printf("bound:    %v >= %.2f\n", rep.Objective, rep.LowerBound)
	}
	if rep.ApproxRatioUpperBound > 0 {
		fmt.Printf("ratio:    <= %.3f (vs certified relaxation bound %.2f)\n",
			rep.ApproxRatioUpperBound, rep.LPLowerBound)
	}
	if rep.Nodes > 0 {
		fmt.Printf("search:   %d nodes, complete %v\n", rep.Nodes, rep.Complete)
	}
	fmt.Printf("wall:     %v\n", rep.Wall)
}

func listSolvers() {
	fmt.Printf("%-20s %-8s %-8s %-8s %s\n", "NAME", "BUDGET", "TARGET", "EXACT", "GUARANTEE")
	for _, s := range solver.List() {
		caps := s.Capabilities()
		var notes []string
		if caps.SeriesParallelOnly {
			notes = append(notes, "series-parallel only")
		}
		if caps.Classes != nil {
			notes = append(notes, "classes: "+strings.Join(caps.Classes, ","))
		}
		if caps.Parallel {
			notes = append(notes, "parallel")
		}
		extra := ""
		if len(notes) > 0 {
			extra = " [" + strings.Join(notes, "; ") + "]"
		}
		fmt.Printf("%-20s %-8v %-8v %-8v %s%s\n",
			s.Name(), caps.Budget, caps.Target, caps.Exact, caps.Guarantee, extra)
	}
}
