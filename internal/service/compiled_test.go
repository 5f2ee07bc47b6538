package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
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

// TestCompiledAliasCap checks that one entry is indexed under at most
// maxRawAliases keys, instance and body keys together: encodings and
// bodies past the cap still resolve to the entry's compiled form, but
// are not remembered.
func TestCompiledAliasCap(t *testing.T) {
	var inst core.Instance
	if err := inst.UnmarshalJSON(storeInstanceJSON(t, 0)); err != nil {
		t.Fatal(err)
	}
	// Instance i's bytes are {i, 0}; body i's are {i, 1}.
	key := func(i, role byte) [sha256.Size]byte { return sha256.Sum256([]byte{i, role}) }
	cc := newCompiledCache(2)
	c := cc.add(key(0, 0), core.Compile(&inst))
	for i := byte(0); i < maxRawAliases; i++ {
		if got := cc.add(key(i, 0), core.Compile(&inst)); got != c {
			t.Fatalf("encoding %d compiled anew; want the entry's compiled form", i)
		}
		cc.addBody(key(i, 1), nil, SolveRequest{}, c)
	}
	if n := compiledKeys(cc); n != 1+maxRawAliases {
		t.Fatalf("the compiled cache holds %d keys; want the hash and %d aliases", n, maxRawAliases)
	}
	if _, _, ok := cc.get([]byte{maxRawAliases - 1, 0}); ok {
		t.Fatal("an encoding past the alias cap was remembered")
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

// BenchmarkServeHotBody is BenchmarkServeHotHTTP on perfbench hot's
// largest body class: hotShapedBody, about 100 KB, sent again and again.
// A repeated body costs one SHA-256 and one compiled-cache lookup; the
// scan that would find its instance's end is what the body alias saves.
func BenchmarkServeHotBody(b *testing.B) {
	svc, err := New(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	body := hotShapedBody(b)
	post := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		return w
	}
	if w := post(); w.Code != http.StatusOK {
		b.Fatalf("prime request failed: %d %s", w.Code, w.Body.String())
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := post(); w.Code != http.StatusOK {
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

// normalizeAnswer blanks the fields a repeated request may legitimately
// answer differently: every wall_ms, and cached.
var normalizeAnswer = regexp.MustCompile(`"(wall_ms|cached)":[^,}]*`)

// postRaw posts body to /v1/solve and returns the status and the answer
// with wall_ms and cached blanked.
func postRaw(t *testing.T, ts *httptest.Server, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, normalizeAnswer.ReplaceAllString(string(data), `"$1":_`)
}

// TestRepeatedBodyAnswersAsItsDecode posts each body twice: the repeat
// of a single solve is a body hit, which must answer exactly as the
// first request's decode did (same status, same bytes apart from wall_ms
// and cached).  Each case's instance is compiled first under other
// options, so both answers are compiled hits.  compiled.body_hits grows
// on the repeat of a valid single solve and on nothing else.
func TestRepeatedBodyAnswersAsItsDecode(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	for i, tc := range []struct {
		name   string
		body   func(inst string) string
		status int
		valid  bool // a single solve that prepares: its repeat is a body hit
	}{
		{"unknown keys", func(inst string) string {
			return `{"x":{"y":[1,null,{"z":"w"}]},"solver":"exact","options":{"budget":3,"zz":[]},"instance":` + inst + `,"k":true}`
		}, http.StatusOK, true},
		{"repeated keys", func(inst string) string {
			return `{"solver":"nope","instance":{"nodes":["x"]},"options":{"budget":9,"alpha":0.5},"solver":"auto","instance":` + inst + `,"options":{"budget":2}}`
		}, http.StatusOK, true},
		{"white space", func(inst string) string {
			return " \n\t{ \"options\" : {\"budget\":4} ,\r\n\"instance\":\t" + inst + " }\n\n "
		}, http.StatusOK, true},
		{"bytes after the value", func(inst string) string {
			return `{"options":{"budget":1},"instance":` + inst + `} {"solver":`
		}, http.StatusOK, true},
		{"deadline", func(inst string) string {
			return `{"options":{"budget":2,"deadline_ms":60000,"parallelism":1},"solver":"exact","instance":` + inst + `}`
		}, http.StatusOK, true},
		{"envelope decode fails", func(inst string) string {
			return `{"options":{"budget":2},"instance":` + inst + `,"solver":1}`
		}, http.StatusBadRequest, false},
		{"instance decode fails", func(string) string {
			return `{"options":{"budget":2},"instance":{"nodes":["s","t"],"edges":[{"from":0,"to":5}]}}`
		}, http.StatusBadRequest, false},
		{"options fail", func(inst string) string {
			return `{"options":{"budget":-1},"instance":` + inst + `}`
		}, http.StatusBadRequest, false},
		{"solver lookup fails", func(inst string) string {
			return `{"solver":"nope","options":{"budget":2},"instance":` + inst + `}`
		}, http.StatusBadRequest, false},
		{"mode unsupported", func(inst string) string {
			return `{"solver":"kway5","options":{"target":40},"instance":` + inst + `}`
		}, http.StatusBadRequest, false},
		{"batch", func(inst string) string {
			return `{"batch":[{"options":{"budget":2},"instance":` + inst + `},{"solver":"nope","instance":` + inst + `}]}`
		}, http.StatusOK, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := string(storeInstanceJSON(t, int64(i)))
			if status, answer := postRaw(t, ts, `{"options":{"budget":0},"instance":`+inst+`}`); status != http.StatusOK {
				t.Fatalf("priming the instance: status %d, %s", status, answer)
			}
			body := tc.body(inst)
			before := svc.compiled.stats()
			status1, first := postRaw(t, ts, body)
			mid := svc.compiled.stats()
			status2, second := postRaw(t, ts, body)
			after := svc.compiled.stats()
			if status1 != status2 || first != second {
				t.Fatalf("the repeat answered differently:\nfirst  %d %s\nrepeat %d %s", status1, first, status2, second)
			}
			if status1 != tc.status {
				t.Fatalf("answered %d %s; want status %d", status1, first, tc.status)
			}
			if tc.valid && !strings.Contains(first, `"compiled_hit":true`) {
				t.Fatalf("a valid single solve answered %s; want a compiled hit", first)
			}
			var want int64
			if tc.valid {
				want = 1
			}
			if d1, d2 := mid.BodyHits-before.BodyHits, after.BodyHits-mid.BodyHits; d1 != 0 || d2 != want {
				t.Fatalf("body_hits grew by %d on the first post and %d on the repeat; want 0 and %d", d1, d2, want)
			}
		})
	}
}

// TestBodyKeysNeverMatchInstances posts a document that is both a valid
// single-solve body and a valid instance document (its own nodes and
// edges, plus "options" and "instance" members, which an instance
// ignores).  Once it has been aliased as a body, the same bytes sent as
// another request's instance must still compile the outer document.
func TestBodyKeysNeverMatchInstances(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	inner := string(storeInstanceJSON(t, 0))
	doc := `{"nodes":["s","t"],"edges":[{"from":0,"to":1,"fn":{"kind":"const","t0":7}}],"options":{"budget":1},"instance":` + inner + `}`
	var asBody, repeat, asInstance SolveResponse
	if status := postSolve(t, ts, doc, &asBody); status != http.StatusOK || asBody.InstanceArcs != 6 {
		t.Fatalf("the document as a body: status %d, %+v; want the 6-arc inner instance", status, asBody)
	}
	if status := postSolve(t, ts, doc, &repeat); status != http.StatusOK || repeat.Hash != asBody.Hash {
		t.Fatalf("the repeated body: status %d, %+v", status, repeat)
	}
	if st := svc.compiled.stats(); st.BodyHits != 1 {
		t.Fatalf("compiled stats %+v; want the repeat to be a body hit", st)
	}
	if status := postSolve(t, ts, `{"options":{"budget":1},"instance":`+doc+`}`, &asInstance); status != http.StatusOK {
		t.Fatalf("the document as an instance: status %d, %+v", status, asInstance)
	}
	if asInstance.InstanceArcs != 1 || asInstance.Hash == asBody.Hash || asInstance.CompiledHit {
		t.Fatalf("the document as an instance answered %+v; want a fresh compile of its own 1-arc graph", asInstance)
	}
}

// TestInstanceKeysNeverMatchBodies is TestBodyKeysNeverMatchInstances
// the other way round: once the document's bytes are an instance key, the
// same bytes posted as a body must still decode as a body and answer its
// inner instance, every time.
func TestInstanceKeysNeverMatchBodies(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	inner := string(storeInstanceJSON(t, 0))
	doc := `{"nodes":["s","t"],"edges":[{"from":0,"to":1,"fn":{"kind":"const","t0":7}}],"options":{"budget":1},"instance":` + inner + `}`
	var asInstance SolveResponse
	if status := postSolve(t, ts, `{"options":{"budget":1},"instance":`+doc+`}`, &asInstance); status != http.StatusOK || asInstance.InstanceArcs != 1 {
		t.Fatalf("the document as an instance: status %d, %+v; want its own 1-arc graph", status, asInstance)
	}
	for i := 0; i < 2; i++ {
		var asBody SolveResponse
		if status := postSolve(t, ts, doc, &asBody); status != http.StatusOK || asBody.InstanceArcs != 6 {
			t.Fatalf("the document as body %d: status %d, %+v; want the 6-arc inner instance", i, status, asBody)
		}
	}
	if st := svc.compiled.stats(); st.BodyHits != 0 {
		t.Fatalf("compiled stats %+v; bytes registered as an instance key must never be a body hit", st)
	}
}

// compiledKeys counts the keys of the compiled cache's two maps.
func compiledKeys(cc *compiledCache) int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.byHash) + len(cc.byKey)
}

// TestBodyAliasesFollowTheirEntry checks that body aliases live and die
// with their compiled entry: a stream of distinct bodies well past the
// capacity keeps the key maps within capacity x (1 + maxRawAliases), a
// body whose entry was evicted misses, and identical bodies posted
// concurrently register one alias.
func TestBodyAliasesFollowTheirEntry(t *testing.T) {
	const capacity = 2
	svc, ts := newTestServer(t, Config{Workers: 2, CompiledEntries: capacity})
	for bump := int64(0); bump < 40; bump++ {
		var resp SolveResponse
		if status := postSolve(t, ts, storeSolveBody(t, bump), &resp); status != http.StatusOK {
			t.Fatalf("body %d: status %d, %+v", bump, status, resp)
		}
		if n := compiledKeys(svc.compiled); n > capacity*(1+maxRawAliases) {
			t.Fatalf("after %d bodies the compiled cache holds %d keys; want at most %d", bump+1, n, capacity*(1+maxRawAliases))
		}
	}
	before := svc.compiled.stats()
	var evicted SolveResponse
	if status := postSolve(t, ts, storeSolveBody(t, 0), &evicted); status != http.StatusOK || evicted.CompiledHit {
		t.Fatalf("a body whose entry was evicted: status %d, %+v; want a fresh compile", status, evicted)
	}
	if st := svc.compiled.stats(); st.BodyHits != before.BodyHits || st.Misses != before.Misses+1 {
		t.Fatalf("compiled stats %+v after %+v; want one miss and no body hit", st, before)
	}

	body := storeSolveBody(t, 100)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if status, data, err := postSolveCtx(context.Background(), ts.URL, body); err != nil || status != http.StatusOK {
				t.Errorf("concurrent post: status %d, error %v, %s", status, err, data)
			}
		}()
	}
	wg.Wait()
	svc.compiled.mu.Lock()
	ref, ok := svc.compiled.byKey[sha256.Sum256([]byte(body))]
	ok = ok && ref.body != nil
	var aliases int
	if ok {
		for _, k := range ref.el.Value.(*compiledEntry).keys {
			if svc.compiled.byKey[k].body != nil {
				aliases++
			}
		}
	}
	svc.compiled.mu.Unlock()
	if !ok || aliases != 1 {
		t.Fatalf("8 concurrent identical bodies: aliased %v with %d body aliases on the entry; want exactly 1", ok, aliases)
	}
}
