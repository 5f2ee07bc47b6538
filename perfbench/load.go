package main

// The closed-loop load generator and the answer checks.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// wireReport is the subset of a solve report the checks read.
type wireReport struct {
	Solver     string  `json:"solver"`
	Makespan   int64   `json:"makespan"`
	Resources  int64   `json:"resources"`
	LowerBound float64 `json:"lower_bound"`
	LPBound    float64 `json:"lp_lower_bound"`
	Ratio      float64 `json:"approx_ratio_upper_bound"`
	Exact      bool    `json:"exact"`
	Complete   bool    `json:"complete"`
	Nodes      int     `json:"nodes"`
	WallMS     float64 `json:"wall_ms"`
}

// solveResp is one /v1/solve answer (or one batch item).
type solveResp struct {
	Cached       bool            `json:"cached"`
	CompiledHit  bool            `json:"compiled_hit"`
	StoreHit     bool            `json:"store_hit"`
	Warm         bool            `json:"warm"`
	WallMS       float64         `json:"wall_ms"`
	InstanceArcs int             `json:"instance_arcs"`
	Report       json.RawMessage `json:"report"`
	Error        string          `json:"error"`

	rep wireReport // decoded Report
}

// request is one timed request: a single solve or a batch.
type request struct {
	id    int
	kind  string // single, reenc, batch, edit, recall
	body  []byte
	items []*genRequest // what each item asks for, in batch order
	ref   *solveResp    // hot: the primed answer
}

// sample is the outcome of one request.
type sample struct {
	req        *request
	start, end time.Time
	latencyMS  float64
	items      []solveResp
	err        error // nil: every check passed
}

// computed reports whether item i ran a solve for this request (not a
// cache, coalescing or store answer).
func (s *sample) computed(i int) bool {
	it := &s.items[i]
	return !it.Cached && !it.StoreHit && it.Report != nil
}

// decodeAnswer parses a /v1/solve response body into its items.
func decodeAnswer(r *request, status int, body []byte) ([]solveResp, error) {
	if status != 200 {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	var items []solveResp
	if r.kind == "batch" {
		var br struct {
			Results []solveResp `json:"results"`
		}
		if err := json.Unmarshal(body, &br); err != nil {
			return nil, fmt.Errorf("decode batch answer: %w", err)
		}
		items = br.Results
	} else {
		var one solveResp
		if err := json.Unmarshal(body, &one); err != nil {
			return nil, fmt.Errorf("decode answer: %w", err)
		}
		items = []solveResp{one}
	}
	if len(items) != len(r.items) {
		return nil, fmt.Errorf("%d answers for %d items", len(items), len(r.items))
	}
	for i := range items {
		it := &items[i]
		if it.Error != "" {
			return items, fmt.Errorf("item %d: %s", i, it.Error)
		}
		if it.Report == nil {
			return items, fmt.Errorf("item %d: no report", i)
		}
		if r.ref != nil && bytes.Equal(it.Report, r.ref.Report) {
			// The primed report, already decoded: this keeps the
			// generator's share of the vCPUs small on hot.
			it.rep = r.ref.rep
			continue
		}
		if err := json.Unmarshal(it.Report, &it.rep); err != nil {
			return items, fmt.Errorf("item %d: decode report: %w", i, err)
		}
	}
	return items, nil
}

// alpha is the bi-criteria rounding parameter every request uses (the
// service default).
const alpha = 0.5

// provenRatio is the approximation ratio each dense-LP solver proves
// against its LP optimum, which its report carries as lp_lower_bound: the
// theorem constants for kway5 (Thm 3.9) and binary4 (Thm 3.10), 1/alpha
// for bicriteria (Thm 3.4).  frankwolfe proves makespan <= relax/alpha
// against its fractional objective, which the report does not carry; its
// certified bound may sit below that objective when the duality gap has
// not closed, so its answers are checked for a consistent certificate
// (ratio = makespan / lp_lower_bound) instead.
var provenRatio = map[string]float64{
	routeKWay:       5,
	routeBinary:     4,
	routeBicriteria: 1 / alpha,
}

// checkAnswer verifies one computed or cached answer against what was
// asked: complete, on the intended route, within budget (budget/(1-alpha)
// for the bi-criteria roundings), makespan no better than the certified
// lower bound, and ratio within the route's proven bound.
func checkAnswer(g *genRequest, rep *wireReport) error {
	if !rep.Complete {
		return fmt.Errorf("incomplete %s answer", rep.Solver)
	}
	if rep.Solver != g.route {
		return fmt.Errorf("routed to %s, mix expects %s", rep.Solver, g.route)
	}
	limit := g.budget
	if g.route == routeBicriteria || g.route == routeFW {
		limit = int64(float64(g.budget) / (1 - alpha))
	}
	if rep.Resources > limit {
		return fmt.Errorf("%s spent %d resources, limit %d", rep.Solver, rep.Resources, limit)
	}
	if rep.Resources <= g.budget && float64(rep.Makespan) < rep.LowerBound-1e-6 {
		return fmt.Errorf("%s makespan %d below its certified bound %g", rep.Solver, rep.Makespan, rep.LowerBound)
	}
	if bound, ok := provenRatio[g.route]; ok {
		if rep.Ratio <= 0 || rep.Ratio > bound*(1+1e-9) {
			return fmt.Errorf("%s ratio %g outside (0, %g]", rep.Solver, rep.Ratio, bound)
		}
	} else if g.route == routeFW {
		if rep.LPBound <= 0 || math.Abs(rep.Ratio*rep.LPBound-float64(rep.Makespan)) > 1e-6*math.Max(1, float64(rep.Makespan)) {
			return fmt.Errorf("%s ratio %g inconsistent with makespan %d / bound %g", rep.Solver, rep.Ratio, rep.Makespan, rep.LPBound)
		}
	} else if !rep.Exact {
		return fmt.Errorf("%s answer not certified optimal", rep.Solver)
	}
	return nil
}

// certifiedRatio is an answer's certified ratio: 1 for proven optima.
func certifiedRatio(rep *wireReport) float64 {
	if rep.Exact {
		return 1
	}
	return rep.Ratio
}

// loadResult is one timed phase.
type loadResult struct {
	samples []*sample
	elapsed time.Duration
}

// runLoad drives the server with `clients` closed-loop clients for dur:
// each client sends its next request only after the previous answer has
// fully arrived.  next returns the request with the given sequence
// number, check validates an answer.
// Requests in flight when time is up complete and count; the phase ends
// when the last one does.
func runLoad(s *server, clients int, dur time.Duration, next func(i int) *request,
	check func(r *request, items []solveResp) error) loadResult {
	var (
		seq atomic.Int64
		mu  sync.Mutex
		res loadResult
		wg  sync.WaitGroup
	)
	t0 := time.Now()
	stopAt := t0.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []*sample
			for time.Now().Before(stopAt) {
				r := next(int(seq.Add(1) - 1))
				smp := &sample{req: r, start: time.Now()}
				status, body, err := s.solve(r.body)
				smp.end = time.Now()
				smp.latencyMS = float64(smp.end.Sub(smp.start)) / float64(time.Millisecond)
				if err == nil {
					smp.items, err = decodeAnswer(r, status, body)
				}
				if err == nil {
					err = check(r, smp.items)
				}
				smp.err = err
				mine = append(mine, smp)
			}
			mu.Lock()
			res.samples = append(res.samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(t0)
	return res
}
