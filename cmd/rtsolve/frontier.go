package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/solver"
)

// runFrontier sweeps the budget range spec ("lo:hi[:steps]") over the
// instance in path and prints the resource-time tradeoff curve.  Locally
// the instance compiles once and each solve warm-starts from its
// smaller-budget neighbor's witness flow; with serverURL set the sweep
// runs remotely through POST /v1/frontier instead.
func runFrontier(path, spec, algo, serverURL string, alpha float64, maxNodes, parallel int) {
	lo, hi, steps, err := parseSweep(spec)
	if err != nil {
		log.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	if serverURL != "" {
		remoteFrontier(serverURL, data, algo, lo, hi, steps, alpha, maxNodes, parallel)
		return
	}
	var inst core.Instance
	if err := json.Unmarshal(data, &inst); err != nil {
		log.Fatal(err)
	}
	c := core.Compile(&inst)
	fmt.Printf("instance: %d nodes, %d arcs, zero-flow makespan %d\n",
		inst.G.NumNodes(), inst.G.NumEdges(), c.ZeroFlowMakespan())
	printFrontierHeader()
	var prevFlow []int64
	for _, b := range sweepPoints(lo, hi, steps) {
		opts := []solver.Option{
			solver.WithBudget(b),
			solver.WithAlpha(alpha),
			solver.WithMaxNodes(maxNodes),
			solver.WithParallelism(parallel),
		}
		warm := prevFlow != nil
		if warm {
			opts = append(opts, solver.WithIncumbent(prevFlow))
		}
		rep, err := solver.SolveCompiledOptions(context.Background(), algo, c, solver.NewOptions(opts...))
		if err != nil {
			log.Fatalf("budget %d: %v", b, err)
		}
		printFrontierPoint(b, rep.Sol.Makespan, rep.Sol.Value, rep.LowerBound,
			rep.Exact && rep.Complete, warm, float64(rep.Wall)/float64(time.Millisecond))
		if rep.Complete && len(rep.Sol.Flow) > 0 {
			prevFlow = rep.Sol.Flow
		}
	}
}

// remoteFrontier posts the sweep to an rtserve instance and prints its
// FrontierResponse in the same table form as the local sweep.
func remoteFrontier(serverURL string, instance []byte, algo string, lo, hi int64, steps int, alpha float64, maxNodes, parallel int) {
	req := service.FrontierRequest{
		Solver:    algo,
		Instance:  instance,
		BudgetMin: lo,
		BudgetMax: hi,
		Steps:     steps,
		Options:   service.WireOptionsNoMode{MaxNodes: maxNodes, Parallelism: parallel},
	}
	if alpha != 0.5 {
		req.Options.Alpha = &alpha
	}
	body, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	url := strings.TrimRight(serverURL, "/") + "/v1/frontier"
	httpResp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(httpResp.Body).Decode(&e)
		log.Fatalf("%s: %s: %s", url, httpResp.Status, e.Error)
	}
	var resp service.FrontierResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance: %s via %s\n", resp.Hash, url)
	printFrontierHeader()
	for _, pt := range resp.Points {
		if pt.Error != "" {
			fmt.Printf("%8d  error: %s\n", pt.Budget, pt.Error)
			continue
		}
		printFrontierPoint(pt.Budget, pt.Makespan, pt.Resources, pt.LowerBound,
			pt.Exact && pt.Complete, pt.Warm, pt.WallMS)
	}
	fmt.Printf("sweep:    %d points, %d warm starts, monotone %v, %.1fms\n",
		len(resp.Points), resp.WarmHits, resp.Monotone, resp.WallMS)
	if resp.Error != "" {
		log.Fatalf("sweep truncated: %s", resp.Error)
	}
}

func printFrontierHeader() {
	fmt.Printf("%8s  %8s  %9s  %10s  %-7s  %-4s  %s\n",
		"BUDGET", "MAKESPAN", "RESOURCES", "BOUND", "OPTIMAL", "WARM", "WALL")
}

func printFrontierPoint(budget, makespan, resources int64, bound float64, optimal, warm bool, wallMS float64) {
	fmt.Printf("%8d  %8d  %9d  %10.2f  %-7v  %-4v  %.1fms\n",
		budget, makespan, resources, bound, optimal, warm, wallMS)
}

// parseSweep parses "lo:hi[:steps]".
func parseSweep(spec string) (lo, hi int64, steps int, err error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 2 && len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("invalid -frontier %q: want lo:hi[:steps]", spec)
	}
	if lo, err = strconv.ParseInt(parts[0], 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("invalid -frontier lo %q: %v", parts[0], err)
	}
	if hi, err = strconv.ParseInt(parts[1], 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("invalid -frontier hi %q: %v", parts[1], err)
	}
	steps = 8
	if len(parts) == 3 {
		if steps, err = strconv.Atoi(parts[2]); err != nil {
			return 0, 0, 0, fmt.Errorf("invalid -frontier steps %q: %v", parts[2], err)
		}
	}
	if lo < 0 || hi < lo || steps < 2 {
		return 0, 0, 0, fmt.Errorf("invalid -frontier %q: need 0 <= lo <= hi and steps >= 2", spec)
	}
	return lo, hi, steps, nil
}

// sweepPoints samples [lo, hi] at steps ascending budgets, deduplicated
// when the integer range is narrower than the step count.
func sweepPoints(lo, hi int64, steps int) []int64 {
	span := hi - lo
	budgets := make([]int64, 0, steps)
	for i := 0; i < steps; i++ {
		b := lo + span*int64(i)/int64(steps-1)
		if n := len(budgets); n > 0 && budgets[n-1] == b {
			continue
		}
		budgets = append(budgets, b)
	}
	return budgets
}
