package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// isoBodies returns two structurally different JSON encodings of the same
// DAG - renamed nodes and reversed arc order - that must compile to the
// same canonical hash.
func isoBodies() (a, b string) {
	a = `{"options":{"budget":2},"instance":{"nodes":["s","mid","t"],
		"edges":[{"from":0,"to":1,"fn":{"kind":"step","tuples":[{"r":0,"t":9},{"r":2,"t":3}]}},
		         {"from":1,"to":2,"fn":{"kind":"step","tuples":[{"r":0,"t":7},{"r":1,"t":4}]}}]}}`
	b = `{"options":{"budget":2},"instance":{"nodes":["source","m","sink"],
		"edges":[{"from":1,"to":2,"fn":{"kind":"step","tuples":[{"r":0,"t":7},{"r":1,"t":4}]}},
		         {"from":0,"to":1,"fn":{"kind":"step","tuples":[{"r":0,"t":9},{"r":2,"t":3}]}}]}}`
	return a, b
}

// TestIsomorphicEncodingsShareOneJobAndCacheEntry is the end-to-end
// regression test for canonical-hash keying: two isomorphic JSON encodings
// of the same DAG (renamed nodes, reordered arcs) under the same options
// must produce exactly one pool job, one result-cache entry and one
// compiled-instance entry - the second request is a cache hit even though
// its bytes never occurred before.
func TestIsomorphicEncodingsShareOneJobAndCacheEntry(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	bodyA, bodyB := isoBodies()

	var first, second SolveResponse
	if status := postSolve(t, ts, bodyA, &first); status != http.StatusOK || first.Error != "" {
		t.Fatalf("first solve: status %d, %+v", status, first)
	}
	if status := postSolve(t, ts, bodyB, &second); status != http.StatusOK || second.Error != "" {
		t.Fatalf("second solve: status %d, %+v", status, second)
	}
	if first.Hash != second.Hash {
		t.Fatalf("isomorphic encodings hashed differently: %s vs %s", first.Hash, second.Hash)
	}
	if !second.Cached {
		t.Fatal("isomorphic repeat was recomputed; the result cache must key on the canonical hash")
	}
	if first.Report.Makespan != second.Report.Makespan || first.Report.Resources != second.Report.Resources {
		t.Fatalf("isomorphic requests disagree: %+v vs %+v", first.Report, second.Report)
	}
	if jobs := svc.pool.stats().Jobs; jobs != 1 {
		t.Fatalf("pool ran %d jobs; isomorphic encodings must share one", jobs)
	}
	if st := svc.cache.stats(); st.Size != 1 {
		t.Fatalf("result cache holds %d entries; want 1 shared entry", st.Size)
	}
	if st := svc.compiled.stats(); st.Size != 1 || st.Aliased != 1 {
		t.Fatalf("compiled cache stats %+v; want one entry with one isomorphic alias", st)
	}

	// The literal same bytes again: now even the decode is skipped.
	var third SolveResponse
	if status := postSolve(t, ts, bodyA, &third); status != http.StatusOK {
		t.Fatalf("third solve: status %d", status)
	}
	if !third.Cached || !third.CompiledHit {
		t.Fatalf("byte-identical repeat: cached=%v compiled_hit=%v; want both", third.Cached, third.CompiledHit)
	}
	if st := svc.compiled.stats(); st.Hits == 0 {
		t.Fatalf("compiled cache stats %+v; want a raw-bytes hit", st)
	}
}

// TestCompiledCacheSharedAcrossOptions: a hot DAG arriving with varying
// budgets must decode and compile exactly once; each distinct budget still
// solves (distinct result-cache keys), but preprocessing is shared.
func TestCompiledCacheSharedAcrossOptions(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	inst := `{"nodes":["s","t"],"edges":[{"from":0,"to":1,"fn":{"kind":"step","tuples":[{"r":0,"t":9},{"r":1,"t":5},{"r":3,"t":2}]}}]}`
	for i, budget := range []int64{0, 1, 2, 3} {
		body := fmt.Sprintf(`{"options":{"budget":%d},"instance":%s}`, budget, inst)
		var resp SolveResponse
		if status := postSolve(t, ts, body, &resp); status != http.StatusOK || resp.Error != "" {
			t.Fatalf("budget %d: status %d, %+v", budget, status, resp)
		}
		if resp.Cached {
			t.Fatalf("budget %d: distinct options must not hit the result cache", budget)
		}
		if i > 0 && !resp.CompiledHit {
			t.Fatalf("budget %d: instance bytes repeated but were recompiled", budget)
		}
	}
	if st := svc.compiled.stats(); st.Size != 1 || st.Misses != 1 || st.Hits != 3 {
		t.Fatalf("compiled cache stats %+v; want 1 compile and 3 raw hits", st)
	}
	if jobs := svc.pool.stats().Jobs; jobs != 4 {
		t.Fatalf("pool ran %d jobs; want 4 distinct solves", jobs)
	}
}

// TestCompiledCacheEviction: the LRU must drop whole entries with all
// their raw aliases, and a disabled cache must still serve correct solves.
func TestCompiledCacheEviction(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, CompiledEntries: 2})
	mk := func(t0 int64) string {
		return fmt.Sprintf(`{"options":{"budget":1},"instance":{"nodes":["s","t"],"edges":[{"from":0,"to":1,"fn":{"kind":"const","t0":%d}}]}}`, t0)
	}
	for t0 := int64(1); t0 <= 4; t0++ {
		var resp SolveResponse
		if status := postSolve(t, ts, mk(t0), &resp); status != http.StatusOK || resp.Error != "" {
			t.Fatalf("t0=%d: status %d, %+v", t0, status, resp)
		}
	}
	if st := svc.compiled.stats(); st.Size != 2 || st.Evictions != 2 {
		t.Fatalf("compiled cache stats %+v; want size 2 with 2 evictions", st)
	}

	// Disabled compiled cache: every request compiles, none hit.
	svc2, ts2 := newTestServer(t, Config{Workers: 1, CompiledEntries: -1})
	for i := 0; i < 2; i++ {
		var resp SolveResponse
		if status := postSolve(t, ts2, mk(9), &resp); status != http.StatusOK || resp.Error != "" {
			t.Fatalf("disabled cache: status %d, %+v", status, resp)
		}
		if resp.CompiledHit {
			t.Fatal("disabled compiled cache must never report a hit")
		}
	}
	if st := svc2.compiled.stats(); st.Hits != 0 || st.Size != 0 {
		t.Fatalf("disabled compiled cache stats %+v; want no storage", st)
	}
}

// solveBody builds one benchmark request body: a small three-class
// instance solved by the exact search.
func benchBody(b *testing.B) []byte {
	b.Helper()
	body := `{"solver":"exact","options":{"budget":3},"instance":{"nodes":["s","a","b","t"],
		"edges":[{"from":0,"to":1,"fn":{"kind":"step","tuples":[{"r":0,"t":9},{"r":1,"t":5},{"r":3,"t":2}]}},
		         {"from":0,"to":2,"fn":{"kind":"step","tuples":[{"r":0,"t":8},{"r":2,"t":3}]}},
		         {"from":1,"to":3,"fn":{"kind":"step","tuples":[{"r":0,"t":7},{"r":1,"t":4}]}},
		         {"from":1,"to":2,"fn":{"kind":"const","t0":1}},
		         {"from":2,"to":3,"fn":{"kind":"step","tuples":[{"r":0,"t":6},{"r":2,"t":1}]}}]}}`
	var probe map[string]any
	if err := json.Unmarshal([]byte(body), &probe); err != nil {
		b.Fatal(err)
	}
	return []byte(body)
}

func servePost(h http.Handler, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(string(body)))
	h.ServeHTTP(w, r)
	return w
}

// BenchmarkServeHotHTTP measures the steady-state hot path: the
// identical request over and over through the full HTTP handler.  The
// raw bytes hit the compiled-instance cache (no JSON decode, no
// validation, no compile, no hashing) and the result comes from the
// result LRU; what remains is net/http's per-request machinery and the
// response encoding.  The gap to BenchmarkServeColdInstance is the
// payoff of the two caches.
func BenchmarkServeHotHTTP(b *testing.B) {
	svc, err := New(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	body := benchBody(b)
	if w := servePost(h, body); w.Code != http.StatusOK {
		b.Fatalf("prime request failed: %d %s", w.Code, w.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := servePost(h, body); w.Code != http.StatusOK {
			b.Fatalf("hot request failed: %d", w.Code)
		}
	}
}

// BenchmarkServeColdInstance measures the same request through a service
// with both caches disabled: every iteration decodes, validates, compiles,
// hashes and solves.  The hot/cold allocs/op ratio is the measured payoff
// of the compiled-instance core.
func BenchmarkServeColdInstance(b *testing.B) {
	svc, err := New(Config{Workers: 1, CacheEntries: -1, CompiledEntries: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	body := benchBody(b)
	if w := servePost(h, body); w.Code != http.StatusOK {
		b.Fatalf("prime request failed: %d %s", w.Code, w.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := servePost(h, body); w.Code != http.StatusOK {
			b.Fatalf("cold request failed: %d", w.Code)
		}
	}
}
