package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/duration"
	"repro/internal/exact"
	"repro/internal/scenario"
)

// seedDocs are the starting corpus for both fuzz targets: valid wire
// instances from the scenario families plus hand-picked adversarial
// documents (the hardening cases UnmarshalJSON already guards).
func seedDocs(f *testing.F) {
	f.Helper()
	for _, spec := range []scenario.Spec{
		{Name: "s1", Family: "layered", Seed: 3,
			Params: scenario.Params{"layers": 2, "width": 2, "extra": 1, "tuples": 3, "maxt0": 9, "maxr": 3}},
		{Name: "s2", Family: "adversarial", Seed: 5, Params: scenario.Params{"diamonds": 2, "t0": 8}},
		{Name: "s3", Family: "forkjoin", Seed: 7, Params: scenario.Params{"stages": 1, "width": 2, "class": 1, "maxt0": 9}},
	} {
		spec := spec
		b := int64(2)
		spec.Budget = &b
		inst, err := spec.Build()
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(inst)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"nodes":[],"edges":[]}`))
	f.Add([]byte(`{"nodes":["a","b"],"edges":[{"from":0,"to":5,"fn":{"kind":"const","t0":1}}]}`))
	f.Add([]byte(`{"nodes":["a","b"],"edges":[{"from":0,"to":1,"fn":{"kind":"zzz"}},{"from":1,"to":0,"fn":{"kind":"const"}}]}`))
	f.Add([]byte(`{"nodes":["a","b","c"],"edges":[{"from":0,"to":1,"fn":{"kind":"kway","t0":9}},{"from":0,"to":1,"fn":{"kind":"kway","t0":9}},{"from":1,"to":2,"fn":{"kind":"const","t0":0}}]}`))
	// Regression seed: a 19-digit kway T0 once OOM-killed the fuzz worker
	// by materializing ~3e9 breakpoints; the wire cap must reject it.
	f.Add([]byte(`{"nodes":["a","b"],"edges":[{"from":0,"to":1,"fn":{"kind":"kway","t0":9000000000000000000}}]}`))
	// Regression seed: the single-node zero-arc instance (source == sink)
	// once spun flow.Dinic.MaxFlow forever during min-flow cancellation.
	f.Add([]byte(`{"nodes":[""]}`))
}

// solvableCheap reports whether the exact cross-check is affordable and
// well-defined: the tuple-assignment space is what branch-and-bound
// explores, and near-MaxInt64 durations or resources (legal on the wire)
// push path sums into overflow territory the solvers do not defend
// against - both out of scope for the hash consistency property.
func solvableCheap(inst *core.Instance) bool {
	const maxMagnitude = 1 << 40
	space := int64(1)
	for _, fn := range inst.Fns {
		tuples := fn.Tuples()
		space *= int64(len(tuples))
		if space > 1<<12 {
			return false
		}
		for _, tp := range tuples {
			if tp.R > maxMagnitude || tp.T > maxMagnitude {
				return false
			}
		}
	}
	return true
}

// FuzzInstanceUnmarshalJSON hammers the wire decoder: arbitrary bytes
// must either fail cleanly or produce a fully validated instance whose
// re-marshaled form decodes to the same canonical hash (round-trip
// stability), and must never panic or mutate the receiver on failure.
func FuzzInstanceUnmarshalJSON(f *testing.F) {
	seedDocs(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var inst core.Instance
		if err := json.Unmarshal(data, &inst); err != nil {
			if inst.G != nil || inst.Fns != nil {
				t.Fatalf("failed decode mutated the receiver: %+v", inst)
			}
			return
		}
		// Success implies full structural validity.
		if _, _, err := inst.G.Validate(); err != nil {
			t.Fatalf("decoded instance fails validation: %v", err)
		}
		if len(inst.Fns) != inst.G.NumEdges() {
			t.Fatalf("%d duration functions for %d arcs", len(inst.Fns), inst.G.NumEdges())
		}
		out, err := json.Marshal(&inst)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		var back core.Instance
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("round trip failed to decode: %v", err)
		}
		if inst.CanonicalHash() != back.CanonicalHash() {
			t.Fatal("round trip changed the canonical hash")
		}
	})
}

// mutateIsomorphic rewrites the instance without changing what any solver
// can observe: nodes are renamed and arcs re-inserted in a permuted
// order.  CanonicalHash promises insensitivity to exactly these rewrites.
func mutateIsomorphic(inst *core.Instance, rng *rand.Rand) *core.Instance {
	g := dag.New()
	for v := 0; v < inst.G.NumNodes(); v++ {
		g.AddNode("m" + string(rune('a'+rng.Intn(26))))
	}
	perm := rng.Perm(inst.G.NumEdges())
	fns := make([]duration.Func, 0, len(perm))
	for _, e := range perm {
		ed := inst.G.Edge(e)
		g.AddEdge(ed.From, ed.To)
		fns = append(fns, inst.Fns[e])
	}
	return core.MustInstance(g, fns)
}

// FuzzCanonicalHash checks the cache-identity contract end to end: a
// mutated-but-isomorphic instance must hash identically, and equal hashes
// must imply equal solve values (here: the exact optimum under a small
// budget), because the hash is what the result cache keys on.
func FuzzCanonicalHash(f *testing.F) {
	seedDocs(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var inst core.Instance
		if err := json.Unmarshal(data, &inst); err != nil {
			return
		}
		if inst.G.NumEdges() > 24 || !solvableCheap(&inst) {
			return // keep the exact cross-check cheap
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		mut := mutateIsomorphic(&inst, rng)
		if inst.CanonicalHash() != mut.CanonicalHash() {
			t.Fatal("hash changed under node renaming / arc reordering")
		}
		// Hash equality must imply solve-value equality: two instances a
		// cache would identify must produce the same optimum.
		const budget = 3
		a, _, err := exact.MinMakespan(context.Background(), core.Compile(&inst), budget, nil)
		if err != nil {
			t.Fatalf("exact on original: %v", err)
		}
		b, _, err := exact.MinMakespan(context.Background(), core.Compile(mut), budget, nil)
		if err != nil {
			t.Fatalf("exact on mutation: %v", err)
		}
		if a.Makespan != b.Makespan || a.Value != b.Value {
			t.Fatalf("equal hashes, different optima: (%d,%d) vs (%d,%d)",
				a.Makespan, a.Value, b.Makespan, b.Value)
		}
	})
}

// decodeEdgeDocs are seeds for the decoder differential: the corners
// where a hand-written JSON decoder most easily parts from encoding/json.
var decodeEdgeDocs = []string{
	// Escapes, non-ASCII and invalid UTF-8 in names and kinds.
	`{"nodes":["sé","😀","\ud800x","\udc00\ud83d\ude00","a\"b\\c\/d\b\f\n\r\t\u00e9"],"edges":[{"from":0,"to":1,"fn":{"kind":"const","t0":1}},{"from":1,"to":2,"fn":{"kind":"const","t0":1}},{"from":2,"to":3,"fn":{"kind":"const","t0":1}},{"from":3,"to":4,"fn":{"kind":"const","t0":1}}]}`,
	"{\"nodes\":[\"\xff\xfe\",\"\xed\xa0\x80\",\"ok\xc3\"],\"edges\":[{\"from\":0,\"to\":1,\"fn\":{\"kind\":\"const\",\"t0\":1}},{\"from\":1,\"to\":2,\"fn\":{\"kind\":\"const\",\"t0\":1}}]}",
	`{"nodes":["s","t"],"edges":[{"from":0,"to":1,"fn":{"kind":"const\u0000","t0":1}}]}`,
	// Case-folded keys: ASCII, the long s (U+017F) and the Kelvin sign (U+212A).
	`{"NODES":["s","t"],"Edges":[{"FROM":0,"To":1,"FN":{"KIND":"const","T0":3}}]}`,
	"{\"nodeſ\":[\"s\",\"t\"],\"edgeſ\":[{\"from\":0,\"to\":1,\"fn\":{\"Kind\":\"kway\",\"t0\":9}}]}",
	`{"nodes":["s","t"],"edges":[{"from":0,"to":1,"fn":{"Kind":"step","tupleſ":[{"R":0,"T":5},{"r":1,"t":2}]}}]}`,
	// Unknown keys and duplicate keys; a repeated array decodes in place.
	`{"x":[1,{"y":null}],"nodes":["s","t"],"edges":[{"from":0,"to":1,"w":true,"fn":{"kind":"const","t0":1,"z":"q"}}],"y":{}}`,
	`{"nodes":["a","b","c"],"nodes":["s"],"nodes":["x",null,null],"edges":[{"from":0,"to":1,"fn":{"kind":"const","t0":1}},{"from":1,"to":2,"fn":{"kind":"const","t0":1}}]}`,
	`{"nodes":["s","t"],"edges":[{"from":0,"to":1,"fn":{"kind":"step","tuples":[{"r":0,"t":9},{"r":2,"t":4},{"r":5,"t":1}]}}],"edges":[{"fn":{"tuples":[{"t":8}]}}],"edges":[{"fn":{"tuples":[null,{},null]}}]}`,
	`{"nodes":["s","t"],"edges":[{"from":0,"to":1,"fn":{"kind":"step","tuples":[{"r":0,"t":9},{"r":2,"t":4}],"tuples":[],"tuples":[null,null]}}]}`,
	`{"nodes":["s","t","u"],"edges":[{"from":0,"to":1,"fn":{"kind":"step","tuples":[{"r":0,"t":9}]}},{"from":1,"to":2,"fn":{"kind":"step","tuples":[{"r":0,"t":7}]}}],"edges":[{"fn":{"tuples":[{"r":0,"t":9},{"r":1,"t":3}]}},{}]}`,
	// null everywhere a value may stand.
	`null`,
	`{"nodes":null,"edges":null}`,
	`{"nodes":["s","t"],"edges":[null,{"from":null,"to":1,"fn":null}]}`,
	`{"nodes":["s","t"],"edges":[{"from":0,"to":1,"fn":{"kind":null,"t0":null,"tuples":null}}]}`,
	`{"nodes":["s","t"],"edges":[{"from":0,"to":1,"fn":{"kind":"const","t0":2}}],"edges":[null]}`,
	`{"nodes":["s","t"],"edges":[{"from":0,"to":1,"fn":{"kind":"const","t0":4,"kind":null,"t0":null,"tuples":null}}]}`,
	// Fractions, exponents and overflow in integer fields.
	`{"nodes":["s","t"],"edges":[{"from":0,"to":1.0,"fn":{"kind":"const","t0":1}}]}`,
	`{"nodes":["s","t"],"edges":[{"from":0,"to":1,"fn":{"kind":"const","t0":1e2}}]}`,
	`{"nodes":["s","t"],"edges":[{"from":-0,"to":1,"fn":{"kind":"const","t0":9223372036854775807}}]}`,
	`{"nodes":["s","t"],"edges":[{"from":0,"to":1,"fn":{"kind":"const","t0":9223372036854775808}}]}`,
	`{"nodes":["s","t"],"edges":[{"from":0,"to":1,"fn":{"kind":"step","tuples":[{"r":-9223372036854775808,"t":1}]}}]}`,
	`{"nodes":["s","t"],"edges":[{"from":0,"to":1,"fn":{"kind":"const","t0":00}}]}`,
	// Bytes after the first value: json.Unmarshal rejects them.
	`{"nodes":["only"]} `,
	`{"nodes":["only"]}{}`,
	`{"nodes":["only"]} x`,
	// Wrong kinds of value.
	`{"nodes":"s"}`,
	`{"nodes":[1]}`,
	`{"nodes":["s","t"],"edges":{"from":0}}`,
	`{"nodes":["s","t"],"edges":[{"from":"0","to":1,"fn":{"kind":"const","t0":1}}]}`,
	`{"nodes":["s","t"],"edges":[{"from":0,"to":1,"fn":{"kind":true,"t0":1}}]}`,
	`[]`,
	`"nodes"`,
}

// FuzzInstanceDecodeDifferential holds Instance.UnmarshalJSON's scanner
// to its encoding/json reference (core.ReferenceUnmarshal): on every
// input both fail, or both succeed with the same node names, arcs,
// duration functions, source and sink.
func FuzzInstanceDecodeDifferential(f *testing.F) {
	seedDocs(f)
	for _, doc := range decodeEdgeDocs {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := core.ReferenceUnmarshal(data)
		var got core.Instance
		gerr := got.UnmarshalJSON(data)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("reference error %v, scanner error %v", werr, gerr)
		}
		if werr != nil {
			if got.G != nil || got.Fns != nil {
				t.Fatal("failed decode modified the receiver")
			}
			return
		}
		if err := sameInstance(want, &got); err != nil {
			t.Fatal(err)
		}
	})
}

// sameInstance reports how two decoded instances differ, if they do.
func sameInstance(want, got *core.Instance) error {
	if want.G.NumNodes() != got.G.NumNodes() || want.G.NumEdges() != got.G.NumEdges() {
		return fmt.Errorf("size %d nodes/%d arcs, want %d/%d",
			got.G.NumNodes(), got.G.NumEdges(), want.G.NumNodes(), want.G.NumEdges())
	}
	for v := 0; v < want.G.NumNodes(); v++ {
		if want.G.Name(v) != got.G.Name(v) {
			return fmt.Errorf("node %d named %q, want %q", v, got.G.Name(v), want.G.Name(v))
		}
	}
	for e := 0; e < want.G.NumEdges(); e++ {
		if want.G.Edge(e) != got.G.Edge(e) {
			return fmt.Errorf("arc %d is %v, want %v", e, got.G.Edge(e), want.G.Edge(e))
		}
		if want.Fns[e].String() != got.Fns[e].String() ||
			!slices.Equal(want.Fns[e].Tuples(), got.Fns[e].Tuples()) {
			return fmt.Errorf("arc %d carries %v, want %v", e, got.Fns[e], want.Fns[e])
		}
	}
	if want.Source != got.Source || want.Sink != got.Sink {
		return fmt.Errorf("source/sink %d/%d, want %d/%d", got.Source, got.Sink, want.Source, want.Sink)
	}
	return nil
}
