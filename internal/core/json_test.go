package core

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestUnmarshalRejectsAdversarialInstances feeds the wire decoder the
// malformed documents a public endpoint must survive: each case has to
// come back as an error (which the service layer maps to a 400), never a
// panic, and must leave the receiver untouched.
func TestUnmarshalRejectsAdversarialInstances(t *testing.T) {
	cases := []struct {
		name    string
		payload string
		wantErr string
	}{
		// Truncated documents are caught by encoding/json itself before
		// UnmarshalJSON runs; the error is still an error, not a panic.
		{"syntax", `{"nodes": ["s", "t"`, "unexpected end"},
		{"wrong-type", `{"nodes": 7}`, "invalid instance JSON"},
		{"empty-document", `{}`, "no nodes"},
		{"empty-graph", `{"nodes": [], "edges": []}`, "no nodes"},
		{"dangling-to", `{"nodes": ["s", "t"],
			"edges": [{"from": 0, "to": 5, "fn": {"kind": "const", "t0": 1}}]}`,
			"missing node"},
		{"negative-from", `{"nodes": ["s", "t"],
			"edges": [{"from": -1, "to": 1, "fn": {"kind": "const", "t0": 1}}]}`,
			"missing node"},
		{"unknown-kind", `{"nodes": ["s", "t"],
			"edges": [{"from": 0, "to": 1, "fn": {"kind": "warp", "t0": 1}}]}`,
			"unknown spec kind"},
		{"missing-fn", `{"nodes": ["s", "t"], "edges": [{"from": 0, "to": 1}]}`,
			"unknown spec kind"},
		{"bad-step-tuples", `{"nodes": ["s", "t"],
			"edges": [{"from": 0, "to": 1, "fn": {"kind": "step", "tuples": [{"r": 3, "t": 2}]}}]}`,
			"first tuple"},
		{"negative-const", `{"nodes": ["s", "t"],
			"edges": [{"from": 0, "to": 1, "fn": {"kind": "const", "t0": -4}}]}`,
			"negative"},
		{"self-loop", `{"nodes": ["s", "t", "u"],
			"edges": [{"from": 0, "to": 1, "fn": {"kind": "const", "t0": 1}},
			          {"from": 1, "to": 1, "fn": {"kind": "const", "t0": 1}}]}`,
			"self-loop"},
		{"cycle", `{"nodes": ["s", "a", "b", "t"],
			"edges": [{"from": 0, "to": 1, "fn": {"kind": "const", "t0": 1}},
			          {"from": 1, "to": 2, "fn": {"kind": "const", "t0": 1}},
			          {"from": 2, "to": 1, "fn": {"kind": "const", "t0": 1}},
			          {"from": 2, "to": 3, "fn": {"kind": "const", "t0": 1}}]}`,
			"cycle"},
		{"two-sources", `{"nodes": ["s1", "s2", "t"],
			"edges": [{"from": 0, "to": 2, "fn": {"kind": "const", "t0": 1}},
			          {"from": 1, "to": 2, "fn": {"kind": "const", "t0": 1}}]}`,
			"source"},
		{"isolated-node", `{"nodes": ["s", "island", "t"],
			"edges": [{"from": 0, "to": 2, "fn": {"kind": "const", "t0": 1}}]}`,
			"source"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := Instance{Source: -7} // sentinel: must survive failed decodes
			err := json.Unmarshal([]byte(tc.payload), &inst)
			if err == nil {
				t.Fatalf("decode succeeded; want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v; want it to mention %q", err, tc.wantErr)
			}
			if inst.Source != -7 || inst.G != nil {
				t.Fatal("failed decode modified the receiver")
			}
		})
	}
}

// TestUnmarshalAcceptsParallelArcs pins down that duplicate edges are NOT
// adversarial: the model is a multigraph (the Figure 6 expansion emits
// parallel arcs), so they must round-trip, with multiplicity preserved.
func TestUnmarshalAcceptsParallelArcs(t *testing.T) {
	payload := `{"nodes": ["s", "t"],
		"edges": [{"from": 0, "to": 1, "fn": {"kind": "const", "t0": 2}},
		          {"from": 0, "to": 1, "fn": {"kind": "const", "t0": 2}}]}`
	var inst Instance
	if err := json.Unmarshal([]byte(payload), &inst); err != nil {
		t.Fatalf("parallel arcs rejected: %v", err)
	}
	if inst.G.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d; want both parallel arcs", inst.G.NumEdges())
	}
	data, err := json.Marshal(&inst)
	if err != nil {
		t.Fatal(err)
	}
	var back Instance
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.G.NumEdges() != 2 {
		t.Fatalf("round trip lost a parallel arc: NumEdges = %d", back.G.NumEdges())
	}
}

// TestJSONRoundTripPreservesSemantics checks encode(decode(encode(x)))
// equivalence on a representative instance: same names, same topology,
// same durations at every evaluation point, same canonical hash.
func TestJSONRoundTripPreservesSemantics(t *testing.T) {
	orig := diamond(t, [4]string{"s", "a", "b", "t"}, [4]int{0, 1, 2, 3}, fourFns())
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Instance
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.G.NumNodes() != orig.G.NumNodes() || back.G.NumEdges() != orig.G.NumEdges() {
		t.Fatal("round trip changed the graph size")
	}
	for v := 0; v < orig.G.NumNodes(); v++ {
		if orig.G.Name(v) != back.G.Name(v) {
			t.Fatalf("node %d renamed: %q -> %q", v, orig.G.Name(v), back.G.Name(v))
		}
	}
	for e := 0; e < orig.G.NumEdges(); e++ {
		if orig.G.Edge(e) != back.G.Edge(e) {
			t.Fatalf("edge %d moved: %v -> %v", e, orig.G.Edge(e), back.G.Edge(e))
		}
		for r := int64(0); r <= 40; r++ {
			if orig.Fns[e].Eval(r) != back.Fns[e].Eval(r) {
				t.Fatalf("edge %d: Eval(%d) changed across round trip", e, r)
			}
		}
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	var back2 Instance
	if err := json.Unmarshal(again, &back2); err != nil {
		t.Fatal(err)
	}
	if back.CanonicalHash() != back2.CanonicalHash() {
		t.Fatal("second round trip changed the canonical hash")
	}
}

// TestUnmarshalSingleNodeInstance: the smallest valid instance is one node
// and no arcs (source == sink, makespan 0); it must decode, not error.
func TestUnmarshalSingleNodeInstance(t *testing.T) {
	var inst Instance
	if err := json.Unmarshal([]byte(`{"nodes": ["only"]}`), &inst); err != nil {
		t.Fatalf("single-node instance rejected: %v", err)
	}
	if inst.Source != inst.Sink {
		t.Fatal("single node must be both source and sink")
	}
	if Compile(&inst).ZeroFlowMakespan() != 0 {
		t.Fatal("empty-arc instance must have makespan 0")
	}
}
