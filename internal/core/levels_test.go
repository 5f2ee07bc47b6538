package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// TestLevelsStructure checks every structural invariant of the level
// decomposition and the pull-sweep schedule on the whole scenario corpus:
// depths are exact longest-path depths, every arc crosses strictly upward,
// Order is a level-bucketed topological order with Pos as its inverse, and
// the slot schedule is a bijection onto the arcs consistent with the CSR
// in-adjacency.  The level-parallel sweeps' determinism argument ("levels
// are independent") rests on these invariants.
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

			// Depth: 0 iff no in-arcs; otherwise 1 + max over in-neighbors.
			for v := 0; v < n; v++ {
				want := int32(0)
				for i := c.InStart[v]; i < c.InStart[v+1]; i++ {
					if d := lv.Depth[c.ArcFrom[c.InArcs[i]]] + 1; d > want {
						want = d
					}
				}
				if lv.Depth[v] != want {
					t.Fatalf("Depth[%d] = %d, want %d", v, lv.Depth[v], want)
				}
			}
			// Every arc goes to a strictly deeper level.
			for e := 0; e < m; e++ {
				if lv.Depth[c.ArcFrom[e]] >= lv.Depth[c.ArcTo[e]] {
					t.Fatalf("arc %d does not cross levels upward", e)
				}
			}
			// Order/Pos are inverse permutations, level-bucketed, ascending
			// by node id within a level.
			if len(lv.Order) != n || len(lv.Start) != lv.Count+1 {
				t.Fatalf("order/start sizes: %d nodes, %d starts, %d levels", len(lv.Order), len(lv.Start), lv.Count)
			}
			if lv.Start[0] != 0 || int(lv.Start[lv.Count]) != n {
				t.Fatalf("Start bounds [%d, %d], want [0, %d]", lv.Start[0], lv.Start[lv.Count], n)
			}
			maxW := 0
			for l := 0; l < lv.Count; l++ {
				if w := int(lv.Start[l+1] - lv.Start[l]); w > maxW {
					maxW = w
				}
				for p := lv.Start[l]; p < lv.Start[l+1]; p++ {
					v := lv.Order[p]
					if lv.Pos[v] != p {
						t.Fatalf("Pos[%d] = %d, want %d", v, lv.Pos[v], p)
					}
					if lv.Depth[v] != int32(l) {
						t.Fatalf("node %d at level %d has depth %d", v, l, lv.Depth[v])
					}
					if p > lv.Start[l] && lv.Order[p-1] >= v {
						t.Fatalf("level %d not ascending by node id at position %d", l, p)
					}
				}
			}
			if lv.MaxWidth != maxW {
				t.Fatalf("MaxWidth = %d, want %d", lv.MaxWidth, maxW)
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
