package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/solver"
)

// newTestServer builds a service and an HTTP test server around it.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// postSolve posts body to /v1/solve and decodes the response into out.
func postSolve(t *testing.T, ts *httptest.Server, body string, out any) int {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode
}

// marshalRequest renders a scenario.Request as a /v1/solve body item.
func marshalRequest(t *testing.T, req scenario.Request) SolveRequest {
	t.Helper()
	instJSON, err := json.Marshal(req.Inst)
	if err != nil {
		t.Fatal(err)
	}
	w := solver.WireOptions{}
	if req.Budget >= 0 {
		b := req.Budget
		w.Budget = &b
	} else {
		tg := req.Target
		w.Target = &tg
	}
	return SolveRequest{Solver: "auto", Instance: instJSON, Options: w}
}

// reqKey identifies a request up to result equality: canonical instance
// hash plus the result-relevant options.
func reqKey(hash string, req scenario.Request) string {
	return fmt.Sprintf("%s|b%d|t%d", hash, req.Budget, req.Target)
}

func TestHealthzAndSolvers(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, health)
	}

	resp2, err := http.Get(ts.URL + "/v1/solvers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var solvers SolversResponse
	if err := json.NewDecoder(resp2.Body).Decode(&solvers); err != nil {
		t.Fatal(err)
	}
	if len(solvers.Solvers) < 8 {
		t.Fatalf("solvers = %d entries; want all built-ins", len(solvers.Solvers))
	}
	names := make(map[string]bool)
	for _, in := range solvers.Solvers {
		names[in.Name] = true
	}
	for _, want := range []string{"auto", "exact", "bicriteria", "spdp"} {
		if !names[want] {
			t.Fatalf("solver %q missing from listing", want)
		}
	}

	if resp3, err := http.Post(ts.URL+"/healthz", "application/json", nil); err != nil {
		t.Fatal(err)
	} else {
		resp3.Body.Close()
		if resp3.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST /healthz = %d; want 405", resp3.StatusCode)
		}
	}
}

// TestMethodNotAllowedOnEveryRoute pins the routes table as the one
// statement of each route's methods: a method outside Endpoint.Methods
// gets the 405 envelope naming the allowed methods before any handler
// runs, so an unknown job id answers 405, not 404.
func TestMethodNotAllowedOnEveryRoute(t *testing.T) {
	svc, _ := newTestServer(t, Config{Workers: 1})
	paths := strings.NewReplacer("{id}", "j99", "{hash}", "deadbeef")
	for _, ep := range Endpoints() {
		methods := []string{http.MethodPut}
		if len(ep.Methods) == 1 && ep.Methods[0] == http.MethodGet {
			methods = append(methods, http.MethodHead)
		}
		want := "use " + strings.Join(ep.Methods, " or ")
		for _, method := range methods {
			path := paths.Replace(ep.Pattern)
			rec := httptest.NewRecorder()
			svc.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, nil))
			var envelope errorResponse
			if err := json.NewDecoder(rec.Body).Decode(&envelope); err != nil {
				t.Errorf("%s %s: status %d, undecodable body: %v", method, path, rec.Code, err)
				continue
			}
			if rec.Code != http.StatusMethodNotAllowed || envelope.Error.Code != "method_not_allowed" ||
				envelope.Error.Message != want {
				t.Errorf("%s %s: status %d, %+v; want 405 method_not_allowed %q",
					method, path, rec.Code, envelope.Error, want)
			}
		}
	}
}

func TestSolveSingleAndCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := marshalRequest(t, scenario.NewGen(5).RequestStream(1, 1)[0])
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	var first SolveResponse
	if status := postSolve(t, ts, string(body), &first); status != http.StatusOK {
		t.Fatalf("status = %d (%s)", status, first.Error)
	}
	if first.Error != "" || first.Report == nil {
		t.Fatalf("first solve failed: %+v", first)
	}
	if first.Cached {
		t.Fatal("first solve cannot be cached")
	}
	if first.Hash == "" || first.InstanceNodes == 0 || first.InstanceArcs == 0 {
		t.Fatalf("missing instance stats: %+v", first)
	}
	if !first.Report.Complete {
		t.Fatalf("tiny instance must solve to completion: %+v", first.Report)
	}

	var second SolveResponse
	if status := postSolve(t, ts, string(body), &second); status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if !second.Cached {
		t.Fatal("identical request must be served from the cache")
	}
	a, _ := json.Marshal(first.Report)
	b, _ := json.Marshal(second.Report)
	if !bytes.Equal(a, b) {
		t.Fatalf("cached report differs from computed:\n%s\n%s", a, b)
	}
}

func TestSolveRejectsAdversarialRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	valid := `{"nodes":["s","t"],"edges":[{"from":0,"to":1,"fn":{"kind":"const","t0":2}}]}`
	cases := []struct {
		name string
		body string
		want string
	}{
		{"body-syntax", `{"instance": {`, "invalid request body"},
		{"missing-instance", `{"solver":"auto","options":{"budget":3}}`, "missing instance"},
		{"dangling-edge", `{"options":{"budget":3},"instance":{"nodes":["s","t"],
			"edges":[{"from":0,"to":9,"fn":{"kind":"const","t0":1}}]}}`, "missing node"},
		{"empty-graph", `{"options":{"budget":3},"instance":{"nodes":[],"edges":[]}}`, "no nodes"},
		{"unknown-kind", `{"options":{"budget":3},"instance":{"nodes":["s","t"],
			"edges":[{"from":0,"to":1,"fn":{"kind":"tachyon","t0":1}}]}}`, "unknown spec kind"},
		{"cycle", `{"options":{"budget":3},"instance":{"nodes":["s","a","b","t"],
			"edges":[{"from":0,"to":1,"fn":{"kind":"const","t0":1}},
			         {"from":1,"to":2,"fn":{"kind":"const","t0":1}},
			         {"from":2,"to":1,"fn":{"kind":"const","t0":1}},
			         {"from":2,"to":3,"fn":{"kind":"const","t0":1}}]}}`, "cycle"},
		{"no-objective", `{"instance":` + valid + `}`, "budget and target"},
		{"both-objectives", `{"options":{"budget":3,"target":5},"instance":` + valid + `}`, "exactly one"},
		{"negative-budget", `{"options":{"budget":-2},"instance":` + valid + `}`, "negative budget"},
		{"bad-alpha", `{"options":{"budget":3,"alpha":1.5},"instance":` + valid + `}`, "alpha"},
		{"unknown-solver", `{"solver":"quantum","options":{"budget":3},"instance":` + valid + `}`, "unknown solver"},
		{"target-unsupported", `{"solver":"kway5","options":{"target":5},"instance":` + valid + `}`,
			"does not support min-resource"},
		{"parallel-unsupported", `{"solver":"bicriteria","options":{"budget":3,"parallelism":4},"instance":` + valid + `}`,
			"single-threaded"},
		{"parallel-frankwolfe", `{"solver":"frankwolfe","options":{"budget":3,"parallelism":4},"instance":` + valid + `}`,
			"single-threaded"},
		// Refused before any solve starts: exact would start one worker
		// per unit, and 10^13 ms wraps into a deadline already passed.
		{"parallelism-cap", `{"solver":"exact","options":{"budget":3,"parallelism":65},"instance":` + valid + `}`,
			"exceeds the wire cap 64"},
		{"deadline-overflow", `{"options":{"budget":3,"deadline_ms":10000000000000},"instance":` + valid + `}`,
			"overflows a duration"},
		{"batch-and-inline", `{"instance":` + valid + `,"batch":[{"options":{"budget":1},"instance":` + valid + `}]}`,
			"both a batch and an inline instance"},
		// spdp keeps budget+1 cells per tree node: a 2^50 budget must be
		// refused, not sized into an allocation.
		{"spdp-table-cap", `{"solver":"spdp","options":{"budget":1125899906842624},"instance":{"nodes":["s","a","t"],
			"edges":[{"from":0,"to":1,"fn":{"kind":"step","tuples":[{"r":0,"t":9},{"r":2,"t":3}]}},
			         {"from":1,"to":2,"fn":{"kind":"step","tuples":[{"r":0,"t":7},{"r":1,"t":4}]}}]}}`, "cell cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp errorResponse
			status := postSolve(t, ts, tc.body, &resp)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d; want 400 (resp %+v)", status, resp)
			}
			if resp.Error.Code != "invalid_request" {
				t.Fatalf("error code = %q; want invalid_request", resp.Error.Code)
			}
			if !strings.Contains(resp.Error.Message, tc.want) {
				t.Fatalf("error = %q; want it to mention %q", resp.Error.Message, tc.want)
			}
		})
	}

	// Parallel arcs are valid multigraph input, not adversarial: 200.
	var ok SolveResponse
	status := postSolve(t, ts, `{"options":{"budget":1},"instance":{"nodes":["s","t"],
		"edges":[{"from":0,"to":1,"fn":{"kind":"const","t0":2}},
		         {"from":0,"to":1,"fn":{"kind":"const","t0":2}}]}}`, &ok)
	if status != http.StatusOK || ok.Error != "" {
		t.Fatalf("parallel arcs rejected: %d %+v", status, ok)
	}
}

func TestBatchSolvesAndDeduplicates(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})
	item := marshalRequest(t, scenario.NewGen(9).RequestStream(1, 1)[0])
	bad := SolveRequest{Instance: json.RawMessage(`{"nodes":[]}`),
		Options: solver.WireOptions{Budget: new(int64)}}
	env := map[string]any{"batch": []SolveRequest{item, item, bad, item}}
	body, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}

	var resp BatchResponse
	if status := postSolve(t, ts, string(body), &resp); status != http.StatusOK {
		t.Fatalf("batch status = %d", status)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("results = %d; want 4 in request order", len(resp.Results))
	}
	if resp.Results[2].Error == "" || !strings.Contains(resp.Results[2].Error, "no nodes") {
		t.Fatalf("invalid item error = %q; must fail per-item", resp.Results[2].Error)
	}
	var reports []string
	for _, i := range []int{0, 1, 3} {
		r := resp.Results[i]
		if r.Error != "" || r.Report == nil {
			t.Fatalf("batch item %d failed: %+v", i, r)
		}
		data, _ := json.Marshal(r.Report)
		reports = append(reports, string(data))
	}
	if reports[0] != reports[1] || reports[0] != reports[2] {
		t.Fatalf("identical batch items returned different reports:\n%s\n%s\n%s",
			reports[0], reports[1], reports[2])
	}
	// The three identical items must have computed at most once.
	if st := svc.cache.stats(); st.Misses != 1 || st.Hits+st.Coalesced < 2 {
		t.Fatalf("cache stats = %+v; want 1 miss and 2 dedup hits for the triplicate", st)
	}
}

func TestSolvePastDeadlineReturnsPartialNotError(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	inst, err := json.Marshal(scenario.NewGen(7).KWayInstance(5, 5, 3, 400))
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"solver":"exact","options":{"budget":40,"deadline_ms":1},"instance":%s}`, inst)
	var resp SolveResponse
	status := postSolve(t, ts, body, &resp)
	if status != http.StatusOK {
		t.Fatalf("status = %d; a deadline-bounded solve with a partial answer is not a server failure", status)
	}
	if resp.Error == "" || !strings.Contains(resp.Error, "deadline") {
		t.Fatalf("error = %q; want the deadline surfaced", resp.Error)
	}
	if resp.Report == nil {
		t.Fatal("want a partial (or lower-bound-only) report alongside the deadline error")
	}
	if resp.Report.Complete {
		t.Fatal("a 1ms deadline cannot complete this instance")
	}
	if resp.Cached {
		t.Fatal("interrupted results must not be cached")
	}
}

// TestNodeCappedSolveReturnsBound pins the node-cap twin of the deadline
// contract: an exact search that hits max_nodes before finding anything
// answers 200 with a bound-only report and the truncation error, and
// that answer is never cached.
func TestNodeCappedSolveReturnsBound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := bridgeBody(`{"target":10,"max_nodes":1}`)
	for i := 0; i < 2; i++ {
		var resp SolveResponse
		if status := postSolve(t, ts, body, &resp); status != http.StatusOK {
			t.Fatalf("status = %d; a node-capped solve is an answer, not a bad request", status)
		}
		if !strings.Contains(resp.Error, "node budget") {
			t.Fatalf("error = %q; want the truncation surfaced", resp.Error)
		}
		if resp.Report == nil || resp.Report.Complete || resp.Report.Flow != nil || resp.Report.LowerBound <= 0 {
			t.Fatalf("report = %+v; want a bound-only report", resp.Report)
		}
		if resp.Cached {
			t.Fatal("truncated results must not be cached")
		}
	}
}

func TestDeadlineBoundedRequestsUseCacheForCompleteResults(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	inst, err := json.Marshal(scenario.NewGen(5).RequestStream(1, 1)[0].Inst)
	if err != nil {
		t.Fatal(err)
	}
	// A generous deadline on a tiny instance: completes, so the result is
	// cacheable even though the request carried a deadline.
	body := fmt.Sprintf(`{"options":{"budget":3,"deadline_ms":60000},"instance":%s}`, inst)
	var first SolveResponse
	if status := postSolve(t, ts, body, &first); status != http.StatusOK {
		t.Fatalf("status = %d (%s)", status, first.Error)
	}
	if first.Error != "" || first.Report == nil || !first.Report.Complete || first.Cached {
		t.Fatalf("first deadline-bounded solve = %+v; want a fresh complete result", first)
	}
	// The identical deadline-bounded request is served from the cache, as
	// is the deadline-free variant (the cache key excludes the deadline).
	for _, b := range []string{body, fmt.Sprintf(`{"options":{"budget":3},"instance":%s}`, inst)} {
		var again SolveResponse
		if status := postSolve(t, ts, b, &again); status != http.StatusOK {
			t.Fatalf("status = %d", status)
		}
		if !again.Cached || again.Error != "" {
			t.Fatalf("repeat = %+v; want a cache hit", again)
		}
		x, _ := json.Marshal(first.Report)
		y, _ := json.Marshal(again.Report)
		if !bytes.Equal(x, y) {
			t.Fatalf("cached report differs:\n%s\n%s", x, y)
		}
	}
}

// TestLoadConcurrentClients is the end-to-end load test of the acceptance
// criteria: 8 concurrent clients push 200 mixed requests each (singles and
// batches, both objectives, repeated instances) through the full HTTP
// stack.  Every request must succeed, identical requests must produce
// byte-identical reports no matter which client asked or whether the
// cache, a coalesced flight, or a fresh solve answered, and the cache must
// measurably hit.  Run with -race in CI.
func TestLoadConcurrentClients(t *testing.T) {
	const clients, perClient = 8, 200
	svc, ts := newTestServer(t, Config{Workers: 4, CacheEntries: 4096})
	stream := scenario.NewGen(42).RequestStream(clients*perClient, 40)

	type outcome struct {
		key    string
		report string
	}
	var (
		mu       sync.Mutex
		outcomes []outcome
		errs     []string
	)
	record := func(req scenario.Request, resp SolveResponse) {
		mu.Lock()
		defer mu.Unlock()
		if resp.Error != "" || resp.Report == nil {
			errs = append(errs, fmt.Sprintf("req(b=%d,t=%d): %s", req.Budget, req.Target, resp.Error))
			return
		}
		data, err := json.Marshal(resp.Report)
		if err != nil {
			errs = append(errs, err.Error())
			return
		}
		outcomes = append(outcomes, outcome{key: reqKey(resp.Hash, req), report: string(data)})
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mine := stream[c*perClient : (c+1)*perClient]
			for i := 0; i < len(mine); {
				// Every tenth position ships the next (up to) 3 requests
				// as one batch; the rest go as singles.
				if i%10 == 0 && i+3 <= len(mine) {
					batch := mine[i : i+3]
					items := make([]SolveRequest, len(batch))
					for j, req := range batch {
						items[j] = marshalRequest(t, req)
					}
					body, err := json.Marshal(map[string]any{"batch": items})
					if err != nil {
						t.Error(err)
						return
					}
					var resp BatchResponse
					if status := postSolve(t, ts, string(body), &resp); status != http.StatusOK {
						t.Errorf("client %d: batch status %d", c, status)
						return
					}
					if len(resp.Results) != len(batch) {
						t.Errorf("client %d: %d batch results for %d items", c, len(resp.Results), len(batch))
						return
					}
					for j, req := range batch {
						record(req, resp.Results[j])
					}
					i += len(batch)
					continue
				}
				req := mine[i]
				body, err := json.Marshal(marshalRequest(t, req))
				if err != nil {
					t.Error(err)
					return
				}
				var resp SolveResponse
				if status := postSolve(t, ts, string(body), &resp); status != http.StatusOK {
					t.Errorf("client %d: status %d (%s)", c, status, resp.Error)
					return
				}
				record(req, resp)
				i++
			}
		}(c)
	}
	wg.Wait()

	if len(errs) > 0 {
		t.Fatalf("%d requests failed; first: %s", len(errs), errs[0])
	}
	if len(outcomes) != clients*perClient {
		t.Fatalf("recorded %d outcomes; want %d", len(outcomes), clients*perClient)
	}
	byKey := make(map[string]string)
	distinct := 0
	for _, o := range outcomes {
		if prev, ok := byKey[o.key]; !ok {
			byKey[o.key] = o.report
			distinct++
		} else if prev != o.report {
			t.Fatalf("identical request %s produced different reports:\n%s\n%s", o.key, prev, o.report)
		}
	}
	if distinct >= len(outcomes) {
		t.Fatal("load stream contained no duplicate requests; the test would prove nothing")
	}

	st := svc.cache.stats()
	if st.Hits == 0 {
		t.Fatalf("cache stats = %+v; want a measurable hit rate under duplicate-heavy load", st)
	}
	if ps := svc.pool.stats(); ps.Jobs != st.Misses {
		t.Fatalf("pool ran %d jobs but cache recorded %d misses; every solve must flow through the cache",
			ps.Jobs, st.Misses)
	}
	t.Logf("load: %d requests, %d distinct; cache hits %d, misses %d, coalesced %d; pool jobs %d",
		len(outcomes), distinct, st.Hits, st.Misses, st.Coalesced, svc.pool.stats().Jobs)
}

// TestCloseWaitsForSolvesThenRefuses pins shutdown.  Close returns only
// after the running solve finishes.  Batch items still waiting for the
// pool when Close begins — a batch outliving the HTTP server's shutdown
// grace period — and any solve arriving afterwards fail with the
// unavailable error instead of panicking the process.
func TestCloseWaitsForSolvesThenRefuses(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	release := occupyPool(t, svc)

	batch := `{"batch":[` + jobBody(t, 36, "") + `,` + jobBody(t, 37, "") + `]}`
	batchDone := make(chan BatchResponse, 1)
	go func() {
		var out BatchResponse
		defer func() { batchDone <- out }()
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(batch))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("batch status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Error(err)
		}
	}()
	// Both items are past the cache and headed for the occupied slot.
	for svc.cache.stats().Misses < 2 {
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a solve was still running")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	<-closed

	out := <-batchDone
	if len(out.Results) != 2 {
		t.Fatalf("batch results: %+v", out)
	}
	for i, item := range out.Results {
		if item.Report != nil || !strings.Contains(item.Error, "shutting down") {
			t.Fatalf("batch item %d after Close: %+v; want the shutdown error", i, item)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(jobBody(t, 38, "")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || envelope.Error.Code != "unavailable" {
		t.Fatalf("solve after Close: status %d, %+v; want 503 unavailable", resp.StatusCode, envelope)
	}
}
