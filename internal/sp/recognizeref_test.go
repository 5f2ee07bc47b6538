package sp

import "repro/internal/core"

// ReferenceRecognize is the map-based reduction that recognize replaced,
// kept as the differential reference: the same reduction over per-vertex
// hash sets of alive arcs, per-pair arc lists and two worklists.
// TestRecognizeMatchesReference and FuzzSeriesParallelOracle hold the two
// to node-for-node identical trees.
//
// It repeatedly merges parallel arcs and contracts internal vertices with
// in-degree and out-degree one until either a single source-sink arc
// remains (series-parallel) or no reduction applies (not
// series-parallel).
func ReferenceRecognize(inst *core.Instance) (*Tree, map[*Tree]int, bool) {
	m := inst.G.NumEdges()
	type arc struct {
		from, to int
		tree     *Tree
		alive    bool
	}
	arcs := make([]arc, m)
	leafArc := make(map[*Tree]int, m)
	// Per-node alive-arc sets.  Maps give O(1) amortized insert/delete and
	// O(1) retrieval of the single member when a degree hits one.
	in := make(map[int]map[int]struct{}, inst.G.NumNodes())
	out := make(map[int]map[int]struct{}, inst.G.NumNodes())
	addIn := func(v, e int) {
		s := in[v]
		if s == nil {
			s = make(map[int]struct{}, 2)
			in[v] = s
		}
		s[e] = struct{}{}
	}
	addOut := func(v, e int) {
		s := out[v]
		if s == nil {
			s = make(map[int]struct{}, 2)
			out[v] = s
		}
		s[e] = struct{}{}
	}
	// pairArcs groups alive arcs by endpoint pair for parallel merging.
	// Entries can go stale (an arc died or was re-keyed by a series
	// contraction); they are dropped lazily when their key is examined.
	// Each arc enters at most one new key per contraction that consumes an
	// arc, so total insertions stay O(m).
	type pair struct{ from, to int }
	pairArcs := make(map[pair][]int, m)
	alive := m

	for e := 0; e < m; e++ {
		ed := inst.G.Edge(e)
		leaf := Leaf(inst.Fns[e])
		leafArc[leaf] = e
		arcs[e] = arc{from: ed.From, to: ed.To, tree: leaf, alive: true}
		addIn(ed.To, e)
		addOut(ed.From, e)
		pairArcs[pair{ed.From, ed.To}] = append(pairArcs[pair{ed.From, ed.To}], e)
	}
	s, t := inst.Source, inst.Sink

	kill := func(e int) {
		arcs[e].alive = false
		delete(out[arcs[e].from], e)
		delete(in[arcs[e].to], e)
		alive--
	}

	// Worklists.  seen* de-duplicate pending entries so each is queued at
	// most once per change that touches it.
	var pendingPairs []pair
	var pendingNodes []int
	inPairQ := make(map[pair]bool, m)
	inNodeQ := make(map[int]bool, inst.G.NumNodes())
	pushPair := func(p pair) {
		if !inPairQ[p] {
			inPairQ[p] = true
			pendingPairs = append(pendingPairs, p)
		}
	}
	pushNode := func(v int) {
		if v != s && v != t && !inNodeQ[v] {
			inNodeQ[v] = true
			pendingNodes = append(pendingNodes, v)
		}
	}
	// Seed the pair worklist in arc order, not map order: the order pairs
	// are examined shapes the decomposition tree (Parallel/Series nesting),
	// and the memoized tree must come out identical on every run so that
	// downstream DP witnesses - and anything cached from them - are
	// byte-stable.  pushPair de-duplicates, so arcs sharing a pair cost
	// nothing extra.
	for e := 0; e < m; e++ {
		pushPair(pair{arcs[e].from, arcs[e].to})
	}
	for v := 0; v < inst.G.NumNodes(); v++ {
		pushNode(v)
	}

	// mergeParallel collapses every alive arc under key p onto one arc.
	mergeParallel := func(p pair) {
		list := pairArcs[p]
		w := 0
		for _, e := range list {
			if arcs[e].alive && arcs[e].from == p.from && arcs[e].to == p.to {
				list[w] = e
				w++
			}
		}
		list = list[:w]
		if len(list) >= 2 {
			keep := list[0]
			for _, drop := range list[1:] {
				arcs[keep].tree = Parallel(arcs[keep].tree, arcs[drop].tree)
				kill(drop)
			}
			list = list[:1]
			pushNode(p.from)
			pushNode(p.to)
		}
		if len(list) == 0 {
			delete(pairArcs, p)
		} else {
			pairArcs[p] = list
		}
	}

	for len(pendingPairs) > 0 || len(pendingNodes) > 0 {
		for len(pendingPairs) > 0 {
			p := pendingPairs[len(pendingPairs)-1]
			pendingPairs = pendingPairs[:len(pendingPairs)-1]
			inPairQ[p] = false
			mergeParallel(p)
		}
		if len(pendingNodes) == 0 {
			break
		}
		v := pendingNodes[len(pendingNodes)-1]
		pendingNodes = pendingNodes[:len(pendingNodes)-1]
		inNodeQ[v] = false
		if len(in[v]) != 1 || len(out[v]) != 1 {
			continue
		}
		// len(in[v]) == 1 and len(out[v]) == 1 were just checked: a
		// single-member map has exactly one iteration, so no order exists.
		var i, j int
		for e := range in[v] {
			i = e
		}
		for e := range out[v] {
			j = e
		}
		if i == j {
			continue // self loop; not a DAG anyway
		}
		// Series contraction: u -i-> v -j-> w becomes u -i-> w.
		u, w := arcs[i].from, arcs[j].to
		arcs[i].tree = Series(arcs[i].tree, arcs[j].tree)
		kill(j)
		delete(in[v], i)
		arcs[i].to = w
		addIn(w, i)
		np := pair{u, w}
		pairArcs[np] = append(pairArcs[np], i)
		pushPair(np)
		pushNode(u)
		pushNode(w)
	}

	if alive != 1 {
		return nil, nil, false
	}
	for e := range arcs {
		if arcs[e].alive {
			if arcs[e].from == s && arcs[e].to == t {
				return arcs[e].tree, leafArc, true
			}
			break
		}
	}
	return nil, nil, false
}
