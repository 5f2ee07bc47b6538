package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/scenario"
)

// referenceDecode is the encoding/json body decoding the handlers used
// before their scanner decoders (decodeSolveEnvelope, decodeSolveRequest,
// decodeJobRequest), kept as the differential reference: the first JSON
// value of the body, decoded by a json.Decoder, bytes after it ignored.
func referenceDecode[T any](body []byte) (T, error) {
	var v T
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&v)
	return v, err
}

// sameDecode checks one scanner decoder against referenceDecode on body:
// both fail, or both succeed with deeply equal values (so solver,
// options, batch items, frontier and priority agree, and every instance
// span is byte-identical).
func sameDecode[T any](t *testing.T, body []byte, decode func([]byte) (T, error)) {
	t.Helper()
	want, werr := referenceDecode[T](body)
	got, gerr := decode(body)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%T: reference error %v, scanner error %v", want, werr, gerr)
	}
	if werr == nil && !reflect.DeepEqual(want, got) {
		t.Fatalf("%T decoded differently:\nreference %+v\nscanner   %+v", want, want, got)
	}
}

// bodySeeds are request bodies for FuzzSolveBodyDifferential: plain
// requests and batches, plus the corners where a hand-written decoder
// most easily parts from encoding/json.
func bodySeeds(tb testing.TB) []string {
	inst := string(storeInstanceJSON(tb, 0))
	spInst, _, err := scenario.NewGen(3).SPTree(6, 3, 20, 3).ToInstance()
	if err != nil {
		tb.Fatal(err)
	}
	sp, err := json.Marshal(spInst)
	if err != nil {
		tb.Fatal(err)
	}
	return []string{
		storeBody([]byte(inst)),
		`{"solver":"auto","options":{"budget":4,"alpha":0.25,"max_nodes":100,"parallelism":2,"deadline_ms":500},"instance":` + string(sp) + `}`,
		`{"batch":[{"options":{"budget":1},"instance":` + inst + `},{"solver":"spdp","options":{"target":9},"instance":` + string(sp) + `}]}`,
		`{"priority":3,"solver":"exact","options":{"budget":2},"instance":` + inst + `}`,
		`{"frontier":{"instance":` + inst + `,"budgets":[1,2,3]},"priority":-1}`,
		// Escaped, non-ASCII and invalid UTF-8 strings.
		`{"solver":"auto","instance":{"nodes":["é\ud800"]},"options":{"budget":1}}`,
		"{\"solver\":\"\xff\xfe\",\"instance\":\"\xe9\"}",
		`{"solver":"a\"b\\c\/\b\f\n\r\t"}`,
		// Case-folded keys: ASCII, the long s (U+017F) and the Kelvin sign (U+212A).
		`{"SOLVER":"auto","Instance":{"nodes":["x"]},"OPTIONS":{"BUDGET":3,"Max_Nodes":5,"DEADLINE_MS":1}}`,
		"{\"optionſ\":{\"deadline_mſ\":7},\"batcH\":[{\"inſtance\":1}]}",
		"{\"K\":1,\"PRIORITY\":2,\"FRONTIER\":{\"Budgets\":[1]}}",
		// Unknown and duplicate keys; a repeated array decodes in place.
		`{"x":{"y":[1,2,{"z":null}]},"solver":"a","solver":"b","options":{"budget":1},"options":{"target":2}}`,
		`{"batch":[{"solver":"a","options":{"budget":1},"instance":[1]},{"solver":"b"}],"batch":[{"options":{"target":2}}],"batch":[{},{},{}]}`,
		`{"batch":[{"solver":"a"},{"solver":"b"}],"batch":[],"batch":[{},{}]}`,
		`{"frontier":{"budgets":[1,2,3],"steps":4},"frontier":{"budgets":[9]},"instance":{"a":1},"instance":[2]}`,
		// null everywhere a value may stand.
		`null`,
		`{"instance":null,"options":null,"solver":null,"batch":null,"frontier":null,"priority":null}`,
		`{"options":{"budget":null,"target":null,"alpha":null,"max_nodes":null}}`,
		`{"options":{"budget":5},"options":{"budget":null}}`,
		`{"batch":[null,{"solver":null}]}`,
		// Fractions, exponents and overflow in integer fields.
		`{"options":{"budget":1.5}}`,
		`{"options":{"budget":1e3}}`,
		`{"options":{"budget":-0,"target":9223372036854775807}}`,
		`{"options":{"target":-9223372036854775809}}`,
		`{"options":{"alpha":1e400}}`,
		`{"options":{"alpha":1e-400,"parallelism":-1}}`,
		`{"priority":12345678901234567890}`,
		`{"options":{"max_nodes":01}}`,
		// Bytes after the first value: json.Decoder ignores them.
		`{"solver":"auto"} trailing garbage`,
		`{"solver":"auto"}{"solver":`,
		`7 {"solver":"auto"}`,
		// Wrong kinds of value, truncation, emptiness.
		`{"solver":1}`,
		`{"batch":{"solver":"a"}}`,
		`{"options":[]}`,
		`{"frontier":{"budgets":"x"}}`,
		`[{"solver":"auto"}]`,
		`{"instance": {`,
		``,
		" \n\t",
		`{"solver":"a",}`,
	}
}

// sameAlias checks the body alias of a body that decodes as a single
// solve: rebuilt from the alias over a copy of the body, as a repeated
// body arrives, the request equals what decodeSolveEnvelope returns.
func sameAlias(t *testing.T, body []byte) {
	t.Helper()
	env, err := decodeSolveEnvelope(body)
	if err != nil || len(env.Batch) > 0 {
		return
	}
	a, ok := newBodyAlias(body, env.SolveRequest)
	if !ok {
		t.Fatalf("no body alias: the instance %q is not a span of the body", env.Instance)
	}
	if got := a.request(bytes.Clone(body)); !reflect.DeepEqual(got, env.SolveRequest) {
		t.Fatalf("the body alias rebuilt another request:\ndecoded %+v\nrebuilt %+v", env.SolveRequest, got)
	}
}

// FuzzSolveBodyDifferential holds the scanner decoders of every body that
// carries a SolveRequest to their encoding/json reference: on each input
// both fail, or both succeed with identical requests.  A body that
// decodes as a single solve must also rebuild from its body alias to that
// request.
func FuzzSolveBodyDifferential(f *testing.F) {
	for _, s := range bodySeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sameDecode(t, body, decodeSolveEnvelope)
		sameDecode(t, body, decodeSolveRequest)
		sameDecode(t, body, decodeJobRequest)
		sameAlias(t, body)
	})
}

// TestDecodeKeepsInstanceSpans checks that decoded instances are
// sub-slices of the body, not copies.
func TestDecodeKeepsInstanceSpans(t *testing.T) {
	inst := string(storeInstanceJSON(t, 0))
	body := []byte(`{"batch":[{"options":{"budget":1},"instance":` + inst + `}]}`)
	env, err := decodeSolveEnvelope(body)
	if err != nil {
		t.Fatal(err)
	}
	span := env.Batch[0].Instance
	i := bytes.Index(body, []byte(inst))
	if string(span) != inst || &span[0] != &body[i] {
		t.Fatal("the batch item's instance is not a sub-slice of the body")
	}
}

// TestBodyLimits checks the one body reader behind every POST route: a
// body over MaxBodyBytes is a 400 whether or not it declares its length,
// and a chunked body within the limit decodes.
func TestBodyLimits(t *testing.T) {
	const limit = 4 << 10
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: limit})
	big := `{"solver":"auto","pad":"` + strings.Repeat("x", 2*limit) + `"}`
	for _, route := range []string{"/v1/solve", "/internal/v1/solve", "/v1/jobs", "/v1/frontier"} {
		for _, chunked := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/chunked=%v", route, chunked), func(t *testing.T) {
				status, msg := postBody(t, ts.URL+route, big, chunked)
				if status != http.StatusBadRequest || !strings.Contains(msg, "request body too large") {
					t.Fatalf("oversized body: status %d, error %q; want 400, body too large", status, msg)
				}
			})
		}
	}
	// A chunked body decodes, also when it is exactly at the limit.
	body := storeSolveBody(t, 0)
	atLimit := body[:len(body)-1] + `,"pad":"` + strings.Repeat(" ", limit-len(body)-9) + `"}`
	for _, b := range []string{body, atLimit} {
		status, msg := postBody(t, ts.URL+"/v1/solve", b, true)
		if status != http.StatusOK {
			t.Fatalf("chunked %d-byte body: status %d, %s", len(b), status, msg)
		}
	}
}

// TestReadBodyFollowsBytes checks that readBody's buffer follows the bytes
// that arrive, not the length a request declares: a body that declares the
// whole MaxBodyBytes and ends after 1 KiB costs well under a megabyte, and
// a body that trickles in a byte at a time past the first buffer reads
// whole, into a buffer exactly its length.
func TestReadBodyFollowsBytes(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	read := func(body io.Reader, declared int64) ([]byte, uint64, error) {
		r := httptest.NewRequest(http.MethodPost, "/v1/solve", body)
		r.ContentLength = declared
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		buf, err := s.readBody(httptest.NewRecorder(), r)
		runtime.ReadMemStats(&after)
		return buf, after.TotalAlloc - before.TotalAlloc, err
	}
	_, alloc, err := read(strings.NewReader(strings.Repeat("x", 1<<10)), s.maxBody)
	if !errors.Is(err, io.ErrUnexpectedEOF) || alloc > 1<<20 {
		t.Fatalf("a %d-byte declared body that ends after 1 KiB: error %v, %d bytes allocated; want io.ErrUnexpectedEOF and under 1 MiB",
			s.maxBody, err, alloc)
	}
	body := strings.Repeat("y", 100<<10)
	buf, _, err := read(iotest.OneByteReader(strings.NewReader(body)), int64(len(body)))
	if err != nil || string(buf) != body || cap(buf) != len(body) {
		t.Fatalf("a trickled %d-byte body: error %v, read %d bytes into a buffer of %d", len(body), err, len(buf), cap(buf))
	}
}

// postBody posts body, chunked (no Content-Length) when asked, and
// returns the status and the error message, if any.
func postBody(t *testing.T, url, body string, chunked bool) (int, string) {
	t.Helper()
	var r io.Reader = strings.NewReader(body)
	if chunked {
		r = io.MultiReader(r) // hides the length, so the client chunks
	}
	resp, err := http.Post(url, "application/json", r)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	if json.Unmarshal(data, &e) != nil || e.Error.Message == "" {
		return resp.StatusCode, string(data)
	}
	return resp.StatusCode, e.Error.Message
}

// hotShapedBody renders a body like perfbench hot's largest class: a
// series-parallel instance of about 1,100 arcs with 1-4 breakpoints each,
// about 100 KB.
func hotShapedBody(tb testing.TB) []byte {
	tb.Helper()
	inst, _, err := scenario.NewGen(1).SPTree(1100, 4, 30, 4).ToInstance()
	if err != nil {
		tb.Fatal(err)
	}
	data, err := json.Marshal(inst)
	if err != nil {
		tb.Fatal(err)
	}
	return []byte(`{"solver":"auto","options":{"budget":12},"instance":` + string(data) + `}`)
}

// BenchmarkDecodeSolveBody decodes a hot-shaped /v1/solve body with the
// scanner behind handleSolve, and with the json.Decoder it replaced: what
// every request pays before its compiled-cache lookup.
func BenchmarkDecodeSolveBody(b *testing.B) {
	body := hotShapedBody(b)
	for _, bc := range []struct {
		name   string
		decode func([]byte) (solveEnvelope, error)
	}{
		{"scan", decodeSolveEnvelope},
		{"encoding-json", referenceDecode[solveEnvelope]},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				env, err := bc.decode(body)
				if err != nil {
					b.Fatal(err)
				}
				envSink = env
			}
		})
	}
}

var envSink solveEnvelope

// TestHotShapedBodySize pins BenchmarkDecodeSolveBody's body to the hot
// class it stands for.
func TestHotShapedBodySize(t *testing.T) {
	if n := len(hotShapedBody(t)); n < 80<<10 || n > 120<<10 {
		t.Fatalf("%d-byte body; want about 100 KB", n)
	}
}
