package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/solver"
)

// solveAuto decodes and solves a generated request in-process through
// auto, the route the server takes.
func solveAuto(t *testing.T, g *genRequest) *solver.Report {
	t.Helper()
	var inst core.Instance
	if err := json.Unmarshal(g.inst.appendJSON(nil), &inst); err != nil {
		t.Fatalf("%s: generated instance does not decode: %v", g.route, err)
	}
	c := core.Compile(&inst)
	rep, err := solver.SolveCompiledOptions(context.Background(), "auto", c, solver.NewOptions(solver.WithBudget(g.budget)))
	if err != nil {
		t.Fatalf("%s: solve: %v", g.route, err)
	}
	return rep
}

func TestGenRouteLandsOnItsRoute(t *testing.T) {
	for _, route := range routes {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 6; i++ {
			g := genRoute(rng, route)
			rep := solveAuto(t, g)
			if rep.Solver != route {
				t.Errorf("%s draw %d: auto routed to %s (%s)", route, i, rep.Solver, rep.Routing)
			}
			if !rep.Complete {
				t.Errorf("%s draw %d: incomplete solve", route, i)
			}
			t.Logf("%s draw %d: %d arcs, %d bytes, %v, nodes %d", route, i, len(g.inst.arcs), len(g.body()), rep.Wall, rep.Nodes)
		}
	}
}

func TestInputsAreDeterministic(t *testing.T) {
	for _, mk := range []func(seed int64) *workload{newHot, newFresh,
		func(seed int64) *workload { return newResolve(seed, t.TempDir()) }} {
		a, b, c := mk(3), mk(3), mk(4)
		if inputHash(a) != inputHash(b) {
			t.Errorf("%s: same seed, different inputs", a.name)
		}
		if inputHash(a) == inputHash(c) {
			t.Errorf("%s: seeds 3 and 4 give the same inputs", a.name)
		}
	}
}

func TestFreshMixShares(t *testing.T) {
	// Over whole mix blocks, the items' routes have exactly the mix's
	// shares, and batches carry two in-batch duplicates.
	const requests = 8 * 20 // 20 request blocks = 260 items = 13 mix blocks
	count := map[string]int{}
	items := 0
	for i := 0; i < requests; i++ {
		r := freshRequest(11, i)
		distinct := map[*genRequest]bool{}
		for _, g := range r.items {
			distinct[g] = true
		}
		if r.kind == "batch" && (len(r.items) != batchSize || len(distinct) != batchDistinct) {
			t.Fatalf("batch %d: %d items, %d distinct", i, len(r.items), len(distinct))
		}
		for g := range distinct {
			count[g.route]++
			items++
		}
	}
	if items%freshMixBlock != 0 {
		t.Fatalf("%d items is not whole mix blocks", items)
	}
	for _, m := range freshMix {
		if want := m.n * items / freshMixBlock; count[m.route] != want {
			t.Errorf("%s: %d items, want %d", m.route, count[m.route], want)
		}
	}
}

func TestResolveEditsKeepTopology(t *testing.T) {
	base := genResolveExact(rngFor(1, "t", 0))
	for i := 0; i < 20; i++ {
		e := edit(base, rngFor(1, "e", i))
		if len(e.inst.arcs) != len(base.inst.arcs) || e.route != base.route || e.budget != base.budget {
			t.Fatal("edit changed the shape of the request")
		}
		changed := 0
		for j, a := range e.inst.arcs {
			b := base.inst.arcs[j]
			if a.from != b.from || a.to != b.to || len(a.fn.tuples) != len(b.fn.tuples) || a.fn.kind != b.fn.kind {
				t.Fatal("edit changed topology or breakpoint counts")
			}
			if a.fn.t0 != b.fn.t0 || (len(a.fn.tuples) > 0 && a.fn.tuples[0] != b.fn.tuples[0]) {
				changed++
			}
		}
		if changed < 1 || changed > resolveMaxEdit || 2*changed > len(base.inst.arcs) {
			t.Fatalf("edit touched %d of %d arcs", changed, len(base.inst.arcs))
		}
	}
}

func TestResolveRecallsOutliveTheResultCache(t *testing.T) {
	// A recalled base must have left rtserve's default 1024-entry result
	// LRU before its next recall, or the recall is a cache hit instead of
	// a store hit: more than 1024 distinct requests lie between the two.
	const resultCacheEntries = 1024
	w := newResolve(5, t.TempDir())
	n := 4 * resolveExactBases * 3
	keys := make([]string, n)
	for i := range keys {
		sum := sha256.Sum256(w.next(i).body)
		keys[i] = string(sum[:])
	}
	last := map[string]int{}
	recalls := 0
	for i := 0; i < n; i++ {
		if w.next(i).kind != "recall" {
			continue
		}
		recalls++
		if j, ok := last[keys[i]]; ok {
			distinct := map[string]bool{}
			for _, k := range keys[j+1 : i] {
				distinct[k] = true
			}
			if len(distinct) <= resultCacheEntries {
				t.Fatalf("request %d recalls request %d's base after only %d distinct requests", i, j, len(distinct))
			}
		}
		last[keys[i]] = i
	}
	if len(last) != resolveExactBases || recalls != 3*resolveExactBases {
		t.Fatalf("%d recalls over %d bases, want each of %d bases recalled 3 times", recalls, len(last), resolveExactBases)
	}
}
