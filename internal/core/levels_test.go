package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// TestLevelsStructure checks every structural invariant of the level
// order and the pull-sweep schedule on the whole scenario corpus: Order
// is a topological order grouped by level (longest-path depth, computed
// here independently) and ascending by node id within a level, Pos is its
// inverse, and the slot schedule is a bijection onto the arcs consistent
// with the CSR in-adjacency.
func TestLevelsStructure(t *testing.T) {
	for _, spec := range scenario.DefaultCorpus() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			inst, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			c := core.Compile(inst)
			lv := c.Levels()
			n, m := inst.G.NumNodes(), inst.G.NumEdges()

			// Depth: 0 for nodes with no in-arcs, otherwise 1 + max over
			// in-neighbors, pulled in the compiled topological order.
			depth := make([]int32, n)
			for _, v := range c.Topo {
				for i := c.InStart[v]; i < c.InStart[v+1]; i++ {
					if d := depth[c.ArcFrom[c.InArcs[i]]] + 1; d > depth[v] {
						depth[v] = d
					}
				}
			}
			// Order/Pos are inverse permutations, grouped by level with
			// depths non-decreasing, ascending by node id within a level.
			if len(lv.Order) != n || len(lv.Pos) != n {
				t.Fatalf("order/pos sizes %d/%d, want %d", len(lv.Order), len(lv.Pos), n)
			}
			for p := 0; p < n; p++ {
				v := lv.Order[p]
				if lv.Pos[v] != int32(p) {
					t.Fatalf("Pos[%d] = %d, want %d", v, lv.Pos[v], p)
				}
				if p == 0 {
					continue
				}
				u := lv.Order[p-1]
				if depth[u] > depth[v] || (depth[u] == depth[v] && u >= v) {
					t.Fatalf("Order not grouped by level at position %d: node %d (depth %d) before node %d (depth %d)",
						p, u, depth[u], v, depth[v])
				}
			}
			// Every arc goes forward in Order (a topological order).
			for e := 0; e < m; e++ {
				if lv.Pos[c.ArcFrom[e]] >= lv.Pos[c.ArcTo[e]] {
					t.Fatalf("arc %d does not go forward in Order", e)
				}
			}
			// Slot schedule: position p's slots mirror the CSR in-arcs of
			// Order[p], tails named by position; ArcSlot inverts SlotArc.
			if int(lv.SlotStart[n]) != m || len(lv.SlotArc) != m {
				t.Fatalf("slot schedule covers %d of %d arcs", lv.SlotStart[n], m)
			}
			seen := make([]bool, m)
			for p := 0; p < n; p++ {
				v := lv.Order[p]
				if lv.SlotStart[p+1]-lv.SlotStart[p] != c.InStart[v+1]-c.InStart[v] {
					t.Fatalf("position %d slot count mismatch", p)
				}
				for s := lv.SlotStart[p]; s < lv.SlotStart[p+1]; s++ {
					e := lv.SlotArc[s]
					if seen[e] {
						t.Fatalf("arc %d appears in two slots", e)
					}
					seen[e] = true
					if c.InArcs[c.InStart[v]+(s-lv.SlotStart[p])] != e {
						t.Fatalf("slot %d arc order diverges from CSR in-arcs", s)
					}
					if lv.SlotFrom[s] != lv.Pos[c.ArcFrom[e]] {
						t.Fatalf("slot %d tail position mismatch", s)
					}
					if lv.ArcSlot[e] != s {
						t.Fatalf("ArcSlot[%d] = %d, want %d", e, lv.ArcSlot[e], s)
					}
				}
			}

			// Deterministic and memoized.
			if again := core.Compile(inst).Levels(); !reflect.DeepEqual(lv, again) {
				t.Fatal("levels differ across independent compiles")
			}
			if c.Levels() != lv {
				t.Fatal("Levels not memoized on the compiled instance")
			}

			// A longest-path sweep in Order must agree with the compiled MinMakespan.
			et := make([]int64, n)
			for p := 0; p < n; p++ {
				var best int64
				for s := lv.SlotStart[p]; s < lv.SlotStart[p+1]; s++ {
					if cand := et[lv.SlotFrom[s]] + c.MinDur[lv.SlotArc[s]]; cand > best {
						best = cand
					}
				}
				et[p] = best
			}
			if got := et[lv.Pos[inst.Sink]]; got != c.MinMakespan {
				t.Fatalf("pull sweep over levels got makespan %d, want %d", got, c.MinMakespan)
			}
		})
	}
}
