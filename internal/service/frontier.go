package service

// The frontier endpoint sweeps a budget range over one instance and
// returns the discrete resource-time tradeoff curve — the object the
// paper is about.  The instance compiles ONCE for the whole sweep, and
// budgets run in ascending order so each solve warm-starts from its
// smaller-budget neighbor's witness flow: a flow feasible at budget b is
// feasible at every b' > b, so the previous point's solution is a valid
// incumbent that lets the exact search prune from node one.  Every point
// still runs through the shared cache/store path, so repeated sweeps hit
// the result cache and completed points persist across restarts.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/solver"
)

// maxFrontierPoints caps one sweep's budget list.
const maxFrontierPoints = 256

// defaultFrontierSteps is the sweep resolution when the request gives a
// range without a step count.
const defaultFrontierSteps = 8

// errUnknownHash distinguishes "instance not in the store" (404) from
// malformed requests (400).
var errUnknownHash = errors.New("no stored instance with that hash")

// FrontierRequest asks for the resource-time tradeoff curve of one
// instance: POST /v1/frontier with an inline instance, or GET/POST with
// the canonical hash of a previously stored one.  Budgets come either as
// an explicit list or as a [BudgetMin, BudgetMax] range sampled at Steps
// points; they are swept in ascending order.
type FrontierRequest struct {
	// Solver names the registry solver for every point; empty means "auto".
	Solver string `json:"solver,omitempty"`
	// Instance is the inline core.Instance wire document; mutually
	// exclusive with Hash.
	Instance json.RawMessage `json:"instance,omitempty"`
	// Hash names a stored instance by canonical hash (requires the durable
	// store); the GET form's only way to identify the instance.
	Hash string `json:"hash,omitempty"`
	// Options is the /v1/solve options object, applied to every point.
	// Budget and target must be absent (the sweep supplies the budget, and
	// the frontier is by definition a budget sweep); DeadlineMS bounds the
	// WHOLE sweep's wall time, anchored at admission.
	Options solver.WireOptions `json:"options,omitempty"`
	// Budgets lists the sweep's budgets explicitly (deduplicated and
	// sorted ascending); when empty the range fields below apply.
	Budgets []int64 `json:"budgets,omitempty"`
	// BudgetMin and BudgetMax bound the sampled range (inclusive);
	// BudgetMax is required when Budgets is empty.  Steps is the sample
	// count, default 8.
	BudgetMin int64 `json:"budget_min,omitempty"`
	BudgetMax int64 `json:"budget_max,omitempty"`
	Steps     int   `json:"steps,omitempty"`
}

// FrontierPoint is one point of the tradeoff curve: the best makespan
// found at one budget, with its certificate.
type FrontierPoint struct {
	// Budget is the resource budget of this point.
	Budget int64 `json:"budget"`
	// Makespan and Resources describe the solution at this budget
	// (Resources <= Budget).
	Makespan  int64 `json:"makespan"`
	Resources int64 `json:"resources"`
	// LowerBound bounds this budget's optimal makespan from below; with
	// Exact and Complete set it equals Makespan.
	LowerBound float64 `json:"lower_bound,omitempty"`
	// Guarantee is the solver's proven bound at this point.
	Guarantee string `json:"guarantee,omitempty"`
	// Exact marks a certified-optimal point; Complete a finished solve.
	Exact    bool `json:"exact"`
	Complete bool `json:"complete"`
	// Cached, StoreHit and Warm mirror the SolveResponse fields: result
	// cache hit, durable store hit, warm-started solve.
	Cached   bool `json:"cached,omitempty"`
	StoreHit bool `json:"store_hit,omitempty"`
	Warm     bool `json:"warm,omitempty"`
	// WallMS is the service wall time spent on this point.
	WallMS float64 `json:"wall_ms"`
	// Error is this point's failure, if any; other points still stand.
	Error string `json:"error,omitempty"`
}

// FrontierResponse answers GET/POST /v1/frontier: the tradeoff curve in
// ascending budget order.
type FrontierResponse struct {
	// Hash is the instance's canonical hash; Solver the per-point solver.
	Hash   string `json:"hash,omitempty"`
	Solver string `json:"solver,omitempty"`
	// Points is the curve, one entry per budget, ascending.
	Points []FrontierPoint `json:"points"`
	// WarmHits counts points whose solve was warm-started (by the
	// neighboring point's witness or a stored donor).
	WarmHits int `json:"warm_hits"`
	// Monotone reports that makespan never increased as the budget grew —
	// guaranteed for exact solvers, diagnostic for approximations.
	Monotone bool `json:"monotone"`
	// WallMS is the wall time of the whole sweep.
	WallMS float64 `json:"wall_ms"`
	// Error is a sweep-level failure (cancellation mid-sweep); the points
	// gathered before it are retained.
	Error string `json:"error,omitempty"`
}

// frontierPlan is a validated, compiled frontier sweep ready to run: the
// shared prepared request (budget overwritten per point) and the
// ascending budget list.
type frontierPlan struct {
	p       *prepared
	budgets []int64
}

// planFrontier validates req and compiles its instance once.  Mirrors
// prepare: every malformed sweep fails before any solve (or job
// acceptance) happens.
func (s *Server) planFrontier(req FrontierRequest, now time.Time) (*frontierPlan, error) {
	raw := req.Instance
	if len(raw) == 0 {
		if req.Hash == "" {
			return nil, errors.New("missing instance: send one inline or reference a stored hash")
		}
		if s.store == nil {
			return nil, errors.New("instance by hash requires the durable store (start with -store)")
		}
		stored, ok := s.store.GetInstance(req.Hash)
		if !ok {
			return nil, fmt.Errorf("%w: %q", errUnknownHash, req.Hash)
		}
		raw = stored
	} else if req.Hash != "" {
		return nil, errors.New("request has both an inline instance and a hash; send one or the other")
	}
	if req.Options.Budget != nil || req.Options.Target != nil {
		return nil, errors.New("frontier options must not set budget or target: the sweep supplies the budgets")
	}
	budgets, err := sweepBudgets(req)
	if err != nil {
		return nil, err
	}
	sr := SolveRequest{Solver: req.Solver, Instance: raw, Options: req.Options}
	// Validate under the first budget; solveFrontier overwrites the budget
	// per point, which cannot invalidate an otherwise-valid request.
	sr.Options.Budget = &budgets[0]
	p, err := s.prepare(sr, now)
	if err != nil {
		return nil, err
	}
	return &frontierPlan{p: p, budgets: budgets}, nil
}

// sweepBudgets resolves the request's budget specification into a sorted,
// deduplicated ascending list.
func sweepBudgets(req FrontierRequest) ([]int64, error) {
	if len(req.Budgets) > 0 {
		if len(req.Budgets) > maxFrontierPoints {
			return nil, fmt.Errorf("%d budgets exceed the %d-point sweep cap", len(req.Budgets), maxFrontierPoints)
		}
		budgets := append([]int64(nil), req.Budgets...)
		for _, b := range budgets {
			if b < 0 {
				return nil, fmt.Errorf("negative budget %d", b)
			}
		}
		sort.Slice(budgets, func(i, j int) bool { return budgets[i] < budgets[j] })
		out := budgets[:1]
		for _, b := range budgets[1:] {
			if b != out[len(out)-1] {
				out = append(out, b)
			}
		}
		return out, nil
	}
	if req.BudgetMin < 0 {
		return nil, fmt.Errorf("negative budget_min %d", req.BudgetMin)
	}
	if req.BudgetMax <= req.BudgetMin {
		return nil, fmt.Errorf("budget_max %d not above budget_min %d (or missing); set an explicit budgets list or a non-empty range", req.BudgetMax, req.BudgetMin)
	}
	steps := req.Steps
	if steps == 0 {
		steps = defaultFrontierSteps
	}
	if steps < 2 {
		return nil, fmt.Errorf("steps %d below the 2 minimum", steps)
	}
	if steps > maxFrontierPoints {
		return nil, fmt.Errorf("steps %d exceed the %d-point sweep cap", steps, maxFrontierPoints)
	}
	// budget i is BudgetMin + floor(span·i/k), split around k so that
	// span·i cannot overflow on ranges near MaxInt64.
	span, k := req.BudgetMax-req.BudgetMin, int64(steps-1)
	budgets := make([]int64, 0, steps)
	for i := int64(0); i <= k; i++ {
		b := req.BudgetMin + span/k*i + span%k*i/k
		if n := len(budgets); n > 0 && budgets[n-1] == b {
			continue // integer range narrower than the step count
		}
		budgets = append(budgets, b)
	}
	return budgets, nil
}

// solveFrontier runs the sweep: ascending budgets, each point
// warm-started from the previous complete point's witness flow, every
// point through the shared solvePrepared path (result cache, durable
// store, pool).  onPoint, when non-nil, observes each completed point in
// order with the count of points done so far (the frontier job's event
// feed).  Point failures and a mid-sweep cancellation are reported inside
// the response, never as a failed sweep.
func (s *Server) solveFrontier(ctx context.Context, plan *frontierPlan, onPoint func(pt FrontierPoint, completed int)) FrontierResponse {
	start := time.Now()
	resp := FrontierResponse{
		Hash:     plan.p.c.Hash(),
		Solver:   plan.p.name,
		Points:   make([]FrontierPoint, 0, len(plan.budgets)),
		Monotone: true,
	}
	var prevFlow []int64
	var prevMakespan int64
	havePrev := false
	for i, b := range plan.budgets {
		if err := ctx.Err(); err != nil {
			resp.Error = err.Error()
			break
		}
		pp := *plan.p
		pp.opts.Budget = b
		pp.opts.Target = -1
		// The smaller-budget neighbor's flow is feasible here (budgets only
		// grow), so it seeds the solve; solvePrepared falls back to a stored
		// donor when no neighbor witness exists yet.
		pp.opts.Incumbent = prevFlow
		pr, _ := s.solvePrepared(ctx, &pp, time.Now())
		pt := FrontierPoint{
			Budget:   b,
			Cached:   pr.Cached,
			StoreHit: pr.StoreHit,
			Warm:     pr.Warm,
			WallMS:   pr.WallMS,
			Error:    pr.Error,
		}
		if pr.Report != nil {
			pt.Makespan = pr.Report.Makespan
			pt.Resources = pr.Report.Resources
			pt.LowerBound = pr.Report.LowerBound
			pt.Guarantee = pr.Report.Guarantee
			pt.Exact = pr.Report.Exact
			pt.Complete = pr.Report.Complete
			if pr.Report.Complete && len(pr.Report.Flow) > 0 {
				prevFlow = pr.Report.Flow
			}
			// A bound-only report (node cap or deadline hit before any
			// solution) has no makespan to hold the curve to.
			if len(pr.Report.Flow) > 0 {
				if havePrev && pt.Makespan > prevMakespan {
					resp.Monotone = false
				}
				prevMakespan, havePrev = pt.Makespan, true
			}
		}
		if pt.Warm {
			resp.WarmHits++
		}
		resp.Points = append(resp.Points, pt)
		if onPoint != nil {
			onPoint(pt, i+1)
		}
	}
	resp.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	return resp
}

// Frontier validates req, compiles its instance once and sweeps it: the
// one statement of the tradeoff-curve sweep behind GET and POST
// /v1/frontier, frontier jobs and embedders such as rtsolve.  An error
// means the request was rejected before any point ran; once the sweep
// starts, point failures and cancellation are reported in the response.
func (s *Server) Frontier(ctx context.Context, req FrontierRequest) (FrontierResponse, error) {
	plan, err := s.planFrontier(req, time.Now())
	if err != nil {
		return FrontierResponse{}, err
	}
	return s.solveFrontier(ctx, plan, nil), nil
}

// handleFrontier serves GET and POST /v1/frontier.  POST carries a
// FrontierRequest body; GET identifies a stored instance by ?hash= and
// takes the sweep parameters from the query string.
func (s *Server) handleFrontier(w http.ResponseWriter, r *http.Request) {
	var req FrontierRequest
	if r.Method == http.MethodGet {
		var err error
		if req, err = frontierQuery(r.URL.Query()); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	} else {
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
			return
		}
	}
	s.requests.Add(1)
	resp, err := s.Frontier(r.Context(), req)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errUnknownHash) {
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// frontierQuery decodes the GET form's query parameters: hash (required),
// solver, budgets (comma-separated), budget_min, budget_max, steps.
func frontierQuery(q map[string][]string) (FrontierRequest, error) {
	get := func(key string) string {
		if vs := q[key]; len(vs) > 0 {
			return vs[0]
		}
		return ""
	}
	req := FrontierRequest{Hash: get("hash"), Solver: get("solver")}
	if req.Hash == "" {
		return req, errors.New("missing hash parameter (GET serves stored instances; POST an inline one)")
	}
	if list := get("budgets"); list != "" {
		for _, part := range strings.Split(list, ",") {
			b, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil {
				return req, fmt.Errorf("invalid budgets entry %q: %v", part, err)
			}
			req.Budgets = append(req.Budgets, b)
		}
	}
	// A fixed order, so that with both bounds malformed the error always
	// names budget_min.
	for _, p := range []struct {
		key string
		dst *int64
	}{{"budget_min", &req.BudgetMin}, {"budget_max", &req.BudgetMax}} {
		if v := get(p.key); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return req, fmt.Errorf("invalid %s %q: %v", p.key, v, err)
			}
			*p.dst = n
		}
	}
	if v := get("steps"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return req, fmt.Errorf("invalid steps %q: %v", v, err)
		}
		req.Steps = n
	}
	return req, nil
}
