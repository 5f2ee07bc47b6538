package sp

import (
	"repro/internal/core"
)

// recognition is the memoized result of Recognize.
type recognition struct {
	tree    *Tree
	leafArc map[*Tree]int
	ok      bool
}

// Recognize decides whether the instance's DAG is two-terminal
// series-parallel and, if so, returns a decomposition tree whose leaves
// carry the instance's duration functions, together with the map from each
// leaf to the arc ID it came from, in the form Tables.Flow expects - so a
// DP solution over the recognized tree can be materialized as a validated
// flow on the original instance.
//
// The result is memoized on the compiled instance: the reduction runs at
// most once per core.Compiled, no matter how many solvers (the auto
// router, the spdp solver, repeated service requests on a hot instance)
// ask.  The returned tree and map are shared and must be treated as
// immutable; the DP (Solve) never mutates the tree.
func Recognize(c *core.Compiled) (*Tree, map[*Tree]int, bool) {
	v := c.Memo("sp.recognize", func() any {
		tree, leafArc, ok := recognize(c.Inst)
		return recognition{tree: tree, leafArc: leafArc, ok: ok}
	})
	r := v.(recognition)
	return r.tree, r.leafArc, r.ok
}

// recognize runs the reduction behind Recognize.  It uses the classical
// confluence property of TTSP graphs: repeatedly merge parallel arcs and
// contract internal vertices with in-degree and out-degree one until either
// a single source-sink arc remains (series-parallel) or no reduction
// applies (not series-parallel).
//
// The reduction is worklist-driven and near-linear: every applied
// reduction removes one arc, and a vertex is re-examined only when one of
// its arcs changed.  A vertex keeps only its alive degrees and the XOR of
// its alive in-arc and out-arc ids: it is contracted only when both
// degrees are one, and then the XORs are its two arcs.  Parallel arcs are
// merged as they appear, so each endpoint pair holds at most one alive
// arc.
//
//rt:deterministic — the tree is memoized on core.Compiled and shared; its shape must not depend on map iteration order.
func recognize(inst *core.Instance) (*Tree, map[*Tree]int, bool) {
	m, n := inst.G.NumEdges(), inst.G.NumNodes()
	type arc struct {
		from, to int
		tree     *Tree
	}
	type vertex struct {
		inDeg, outDeg int
		inX, outX     int // XOR of the alive in-arc and out-arc ids
	}
	arcs := make([]arc, m)
	vs := make([]vertex, n)
	leafArc := make(map[*Tree]int, m)
	// pairs names each endpoint pair's one alive arc.  An arc dies or
	// moves off its pair only when a contraction removes one of the pair's
	// vertices, and a contracted vertex never gains an arc again, so a
	// pair of two vertices that still have arcs never names a dead arc.
	type pair struct{ from, to int }
	pairs := make(map[pair]int, m)
	alive := 0
	for e := 0; e < m; e++ {
		ed := inst.G.Edge(e)
		leaf := Leaf(inst.Fns[e])
		leafArc[leaf] = e
		p := pair{ed.From, ed.To}
		if k, ok := pairs[p]; ok {
			arcs[k].tree = Parallel(arcs[k].tree, leaf)
			continue
		}
		pairs[p] = e
		arcs[e] = arc{from: ed.From, to: ed.To, tree: leaf}
		vs[ed.From].outDeg++
		vs[ed.From].outX ^= e
		vs[ed.To].inDeg++
		vs[ed.To].inX ^= e
		alive++
	}

	// The order vertices are contracted in shapes the tree's nesting, and
	// the memoized tree must come out identical on every run so that DP
	// witnesses, and anything cached from them, are byte-stable: the
	// worklist is a stack seeded in vertex order.
	s, t := inst.Source, inst.Sink
	queued := make([]bool, n)
	var pending []int
	push := func(v int) {
		if v != s && v != t && !queued[v] {
			queued[v] = true
			pending = append(pending, v)
		}
	}
	for v := 0; v < n; v++ {
		push(v)
	}
	for len(pending) > 0 {
		v := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		queued[v] = false
		if vs[v].inDeg != 1 || vs[v].outDeg != 1 {
			continue
		}
		// Series contraction: u -i-> v -j-> w becomes u -i-> w ...
		i, j := vs[v].inX, vs[v].outX
		u, w := arcs[i].from, arcs[j].to
		tree := Series(arcs[i].tree, arcs[j].tree)
		vs[v] = vertex{}
		p := pair{u, w}
		if k, ok := pairs[p]; ok {
			// ... and merges into k, the arc already on u -> w.
			arcs[k].tree = Parallel(arcs[k].tree, tree)
			vs[u].outDeg--
			vs[u].outX ^= i
			vs[w].inDeg--
			vs[w].inX ^= j
			alive -= 2
		} else {
			arcs[i].tree = tree
			arcs[i].to = w
			pairs[p] = i
			vs[w].inX ^= i ^ j
			alive--
		}
		push(u)
		push(w)
	}

	if alive != 1 {
		return nil, nil, false
	}
	// No reduction takes the source's last out-arc (nor the sink's last
	// in-arc), so the one arc left runs from s to t.
	return arcs[vs[s].outX].tree, leafArc, true
}
