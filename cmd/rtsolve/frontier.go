package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"repro/internal/service"
	"repro/internal/solver"
)

// runFrontier sweeps the budget range spec ("lo:hi[:steps]") over the
// instance in path through rtserve's frontier sweep and prints the
// resource-time tradeoff curve to w.  Without serverURL the sweep runs on
// an in-process service.Server; with it, remotely through POST
// /v1/frontier.
func runFrontier(w io.Writer, path, spec, algo, serverURL string, alpha float64, maxNodes, parallel int) error {
	instance, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	req, err := frontierRequest(instance, spec, algo, alpha, maxNodes, parallel)
	if err != nil {
		return err
	}
	var resp service.FrontierResponse
	var via string
	if serverURL == "" {
		resp, err = localFrontier(req)
	} else {
		via = strings.TrimRight(serverURL, "/") + "/v1/frontier"
		resp, err = remoteFrontier(via, req)
	}
	if err != nil {
		return err
	}
	printFrontier(w, resp, via)
	if resp.Error != "" {
		return fmt.Errorf("sweep truncated: %s", resp.Error)
	}
	return nil
}

// frontierRequest builds the sweep request from the -frontier spec
// "lo:hi[:steps]" and the solve flags.  The service validates the range
// and defaults the step count.
func frontierRequest(instance []byte, spec, algo string, alpha float64, maxNodes, parallel int) (service.FrontierRequest, error) {
	req := service.FrontierRequest{
		Solver:   algo,
		Instance: instance,
		Options:  solver.WireOptions{Alpha: &alpha, MaxNodes: maxNodes, Parallelism: parallel},
	}
	parts := strings.Split(spec, ":")
	if len(parts) != 2 && len(parts) != 3 {
		return req, fmt.Errorf("invalid -frontier %q: want lo:hi[:steps]", spec)
	}
	var err error
	if req.BudgetMin, err = strconv.ParseInt(parts[0], 10, 64); err != nil {
		return req, fmt.Errorf("invalid -frontier lo %q: %v", parts[0], err)
	}
	if req.BudgetMax, err = strconv.ParseInt(parts[1], 10, 64); err != nil {
		return req, fmt.Errorf("invalid -frontier hi %q: %v", parts[1], err)
	}
	if len(parts) == 3 {
		if req.Steps, err = strconv.Atoi(parts[2]); err != nil {
			return req, fmt.Errorf("invalid -frontier steps %q: %v", parts[2], err)
		}
	}
	return req, nil
}

// localFrontier runs the sweep on an in-process service.Server.
func localFrontier(req service.FrontierRequest) (service.FrontierResponse, error) {
	srv, err := service.New(service.Config{})
	if err != nil {
		return service.FrontierResponse{}, err
	}
	defer srv.Close()
	return srv.Frontier(context.Background(), req)
}

// remoteFrontier posts the sweep to the rtserve frontier endpoint at url.
// A non-200 answer becomes an error carrying the envelope's message.
func remoteFrontier(url string, req service.FrontierRequest) (service.FrontierResponse, error) {
	var resp service.FrontierResponse
	body, err := json.Marshal(req)
	if err != nil {
		return resp, err
	}
	httpResp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return resp, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		var envelope struct {
			Error service.Error `json:"error"`
		}
		if err := json.NewDecoder(httpResp.Body).Decode(&envelope); err != nil {
			return resp, fmt.Errorf("%s: %s", url, httpResp.Status)
		}
		return resp, fmt.Errorf("%s: %s: %s", url, httpResp.Status, envelope.Error.Message)
	}
	err = json.NewDecoder(httpResp.Body).Decode(&resp)
	return resp, err
}

// printFrontier renders a sweep: the instance line (naming the endpoint
// when via is set), one row per point, and the sweep summary.  A failed
// point prints its error as its row.
func printFrontier(w io.Writer, resp service.FrontierResponse, via string) {
	if via != "" {
		fmt.Fprintf(w, "instance: %s via %s\n", resp.Hash, via)
	} else {
		fmt.Fprintf(w, "instance: %s\n", resp.Hash)
	}
	fmt.Fprintf(w, "%8s  %8s  %9s  %10s  %-7s  %-4s  %s\n",
		"BUDGET", "MAKESPAN", "RESOURCES", "BOUND", "OPTIMAL", "WARM", "WALL")
	for _, pt := range resp.Points {
		if pt.Error != "" {
			fmt.Fprintf(w, "%8d  error: %s\n", pt.Budget, pt.Error)
			continue
		}
		fmt.Fprintf(w, "%8d  %8d  %9d  %10.2f  %-7v  %-4v  %.1fms\n",
			pt.Budget, pt.Makespan, pt.Resources, pt.LowerBound, pt.Exact && pt.Complete, pt.Warm, pt.WallMS)
	}
	fmt.Fprintf(w, "sweep:    %d points, %d warm starts, monotone %v, %.1fms\n",
		len(resp.Points), resp.WarmHits, resp.Monotone, resp.WallMS)
}
