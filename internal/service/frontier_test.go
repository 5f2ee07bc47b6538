package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// postFrontier posts body to /v1/frontier and decodes the response.
func postFrontier(t *testing.T, ts *httptest.Server, body string) (FrontierResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/frontier", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fr FrontierResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
			t.Fatal(err)
		}
	}
	return fr, resp.StatusCode
}

// frontierBody renders a sweep request over a deterministic instance.
func frontierBody(t *testing.T, seed int64, spec string) string {
	t.Helper()
	inst, err := json.Marshal(scenario.NewGen(seed).StepInstance(3, 3, 2, 4, 30, 4))
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"solver":"exact","instance":%s,%s}`, inst, spec)
}

// checkCurve asserts the structural frontier invariants: ascending
// budgets and (for an exact solver) monotonically non-increasing
// makespans with per-point certificates.
func checkCurve(t *testing.T, fr FrontierResponse) {
	t.Helper()
	if !fr.Monotone {
		t.Fatalf("exact sweep reported non-monotone: %+v", fr)
	}
	for i, pt := range fr.Points {
		if pt.Error != "" {
			t.Fatalf("point %d failed: %s", i, pt.Error)
		}
		if !pt.Exact || !pt.Complete {
			t.Fatalf("point %d not certified optimal: %+v", i, pt)
		}
		if pt.Resources > pt.Budget {
			t.Fatalf("point %d spends %d over budget %d", i, pt.Resources, pt.Budget)
		}
		if float64(pt.Makespan) != pt.LowerBound {
			t.Fatalf("optimal point %d has makespan %d != bound %v", i, pt.Makespan, pt.LowerBound)
		}
		if i == 0 {
			continue
		}
		prev := fr.Points[i-1]
		if pt.Budget <= prev.Budget {
			t.Fatalf("budgets not ascending: %d then %d", prev.Budget, pt.Budget)
		}
		if pt.Makespan > prev.Makespan {
			t.Fatalf("makespan rose with budget: %+v -> %+v", prev, pt)
		}
	}
}

// TestFrontierSweep pins the core tradeoff-curve contract: 8 budgets,
// monotone makespans, and neighbor warm-starting on every point after the
// first.
// TestSweepBudgets pins the range sweep: small ranges step evenly, and
// ranges near MaxInt64 stay ascending from budget_min to budget_max
// instead of overflowing.
func TestSweepBudgets(t *testing.T) {
	got, err := sweepBudgets(FrontierRequest{BudgetMin: 0, BudgetMax: 14, Steps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{0, 2, 4, 6, 8, 10, 12, 14}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("0..14 in 8 steps = %v, want %v", got, want)
	}
	for _, req := range []FrontierRequest{
		{BudgetMin: 0, BudgetMax: 1 << 62, Steps: 8},
		{BudgetMin: 0, BudgetMax: math.MaxInt64, Steps: 8},
		{BudgetMin: 3, BudgetMax: math.MaxInt64, Steps: maxFrontierPoints},
	} {
		got, err := sweepBudgets(req)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != req.Steps || got[0] != req.BudgetMin || got[len(got)-1] != req.BudgetMax {
			t.Fatalf("%d..%d in %d steps = %v", req.BudgetMin, req.BudgetMax, req.Steps, got)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("%d..%d in %d steps not strictly ascending at %d: %v", req.BudgetMin, req.BudgetMax, req.Steps, i, got)
			}
		}
	}
}

func TestFrontierSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	fr, status := postFrontier(t, ts, frontierBody(t, 51, `"budget_min":0,"budget_max":14,"steps":8`))
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(fr.Points) != 8 {
		t.Fatalf("got %d points, want 8", len(fr.Points))
	}
	checkCurve(t, fr)
	// Every point after the first is warm-started from its neighbor's
	// witness (nothing is cached on a fresh server).
	if fr.WarmHits < len(fr.Points)-1 {
		t.Fatalf("warm hits %d, want at least %d", fr.WarmHits, len(fr.Points)-1)
	}
	if fr.Points[0].Warm {
		t.Fatal("first point cannot be warm on a fresh server")
	}

	// A repeated sweep is answered point-for-point from the result cache.
	again, _ := postFrontier(t, ts, frontierBody(t, 51, `"budget_min":0,"budget_max":14,"steps":8`))
	for i, pt := range again.Points {
		if !pt.Cached {
			t.Fatalf("repeat point %d not cached: %+v", i, pt)
		}
		if pt.Makespan != fr.Points[i].Makespan {
			t.Fatalf("repeat changed point %d: %d vs %d", i, pt.Makespan, fr.Points[i].Makespan)
		}
	}
}

// TestFrontierExplicitBudgets pins the list form: deduplicated, sorted
// ascending regardless of request order.
func TestFrontierExplicitBudgets(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	fr, status := postFrontier(t, ts, frontierBody(t, 52, `"budgets":[9,0,3,9,6]`))
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var got []int64
	for _, pt := range fr.Points {
		got = append(got, pt.Budget)
	}
	if fmt.Sprint(got) != fmt.Sprint([]int64{0, 3, 6, 9}) {
		t.Fatalf("budgets %v, want deduplicated ascending [0 3 6 9]", got)
	}
	checkCurve(t, fr)
}

// TestFrontierStoreRoundTrip solves once to store the instance, sweeps it
// by hash via GET, and checks a restarted server serves the whole curve
// from the durable store.
func TestFrontierStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newTestServer(t, Config{Workers: 2, StoreDir: dir})

	body := frontierBody(t, 53, `"budget_min":0,"budget_max":10,"steps":6`)
	fr, status := postFrontier(t, ts, body)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	checkCurve(t, fr)

	// GET by hash reads the stored instance back.
	resp, err := http.Get(ts.URL + "/v1/frontier?hash=" + fr.Hash + "&solver=exact&budget_min=0&budget_max=10&steps=6")
	if err != nil {
		t.Fatal(err)
	}
	var got FrontierResponse
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET by hash: status %d err %v", resp.StatusCode, err)
	}
	if len(got.Points) != len(fr.Points) {
		t.Fatalf("GET sweep has %d points, POST had %d", len(got.Points), len(fr.Points))
	}
	ts.Close()
	svc.Close()

	// Restart: every point answers from the durable store, no solving.
	_, ts2 := newTestServer(t, Config{Workers: 2, StoreDir: dir})
	fr2, status := postFrontier(t, ts2, body)
	if status != http.StatusOK {
		t.Fatalf("restart sweep status %d", status)
	}
	for i, pt := range fr2.Points {
		if !pt.StoreHit {
			t.Fatalf("restarted point %d not a store hit: %+v", i, pt)
		}
		if pt.Makespan != fr.Points[i].Makespan {
			t.Fatalf("restart changed point %d: %d vs %d", i, pt.Makespan, fr.Points[i].Makespan)
		}
	}
}

// TestFrontierAsJob runs a sweep as an async job: one progress event per
// point, the curve attached to the final status.
func TestFrontierAsJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	inst, err := json.Marshal(scenario.NewGen(54).StepInstance(3, 3, 2, 4, 30, 4))
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"frontier":{"solver":"exact","instance":%s,"budget_min":0,"budget_max":12,"steps":5}}`, inst)
	acc := postJob(t, ts, body)
	st := pollJob(t, ts, acc.ID)
	if st.State != JobSucceeded {
		t.Fatalf("frontier job finished %s", st.State)
	}
	if st.Frontier == nil || st.Result != nil {
		t.Fatalf("frontier job status carries the wrong payload: %+v", st)
	}
	checkCurve(t, *st.Frontier)
	if st.Events != len(st.Frontier.Points) {
		t.Fatalf("%d events for %d points; frontier jobs emit one per point", st.Events, len(st.Frontier.Points))
	}
	resp, err := http.Get(ts.URL + acc.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events, done := sseEvents(t, bufio.NewReader(resp.Body))
	if done == nil || len(events) != len(st.Frontier.Points) {
		t.Fatalf("SSE replay: %d events, done %v", len(events), done != nil)
	}
	for i, ev := range events {
		if ev.Incumbent != float64(st.Frontier.Points[i].Makespan) {
			t.Fatalf("event %d incumbent %v, point makespan %d", i, ev.Incumbent, st.Frontier.Points[i].Makespan)
		}
		if int(ev.Nodes) != i+1 {
			t.Fatalf("event %d counts %d completed points, want %d", i, ev.Nodes, i+1)
		}
	}
}

// TestFrontierRejections pins the request-validation surface.
func TestFrontierRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := map[string]struct {
		body string
		want int
	}{
		"no instance or hash": {`{"budget_min":0,"budget_max":5}`, http.StatusBadRequest},
		"hash without store":  {`{"hash":"deadbeef","budget_max":5}`, http.StatusBadRequest},
		"missing range":       {frontierBody(t, 55, `"steps":4`), http.StatusBadRequest},
		"inverted range":      {frontierBody(t, 55, `"budget_min":9,"budget_max":3`), http.StatusBadRequest},
		"one step":            {frontierBody(t, 55, `"budget_max":6,"steps":1`), http.StatusBadRequest},
		"negative budget":     {frontierBody(t, 55, `"budgets":[-2,4]`), http.StatusBadRequest},
		"oversized list":      {frontierBody(t, 55, `"steps":1000,"budget_max":100000`), http.StatusBadRequest},
		"options.budget":      {frontierBody(t, 55, `"budget_max":6,"options":{"budget":3}`), http.StatusBadRequest},
		"options.target":      {frontierBody(t, 55, `"budget_max":6,"options":{"target":40}`), http.StatusBadRequest},
	}
	for name, tc := range cases {
		if _, status := postFrontier(t, ts, tc.body); status != tc.want {
			t.Errorf("%s: status %d, want %d", name, status, tc.want)
		}
	}

	// Unknown hash on a store-backed server is a 404, not a 400.
	_, ts2 := newTestServer(t, Config{Workers: 1, StoreDir: t.TempDir()})
	resp, err := http.Get(ts2.URL + "/v1/frontier?hash=0000&budget_max=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown hash: status %d, want 404", resp.StatusCode)
	}
}

// TestFrontierQueryErrorOrder: with both range bounds malformed, the GET
// form's 400 names budget_min on every request, whatever order the
// parameters are parsed in.
func TestFrontierQueryErrorOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for i := 0; i < 32; i++ {
		resp, err := http.Get(ts.URL + "/v1/frontier?hash=h&budget_min=x&budget_max=y")
		if err != nil {
			t.Fatal(err)
		}
		var body errorResponse
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("request %d: status %d, decode error %v", i, resp.StatusCode, err)
		}
		if !strings.HasPrefix(body.Error.Message, `invalid budget_min "x"`) {
			t.Fatalf("request %d: message %q, want the budget_min error", i, body.Error.Message)
		}
	}
}
