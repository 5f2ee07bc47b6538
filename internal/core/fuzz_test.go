package core_test

import (
	"context"
	"encoding/json"
	"math/rand"
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
