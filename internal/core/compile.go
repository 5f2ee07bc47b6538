package core

import (
	"sync"

	"repro/internal/duration"
)

// This file defines the compiled-instance core: one immutable, validated,
// preprocessed representation of an Instance that every solver layer and
// the solving service share.  Compile performs the cheap O(m) derivations
// once, up front - CSR adjacency, topological order, breakpoint tables,
// combinatorial bounds - and memoizes the expensive ones (canonical hash,
// envelopes, class detection, level schedule, and consumers' Memo entries
// such as series-parallel recognition), so they are computed at most once
// per instance no matter how many solvers touch it.
//
// When to use Instance vs Compiled: Instance is the construction and wire
// form - build it, mutate nothing after validation, marshal it.  Compiled
// is the solve form - anything that reads topology, breakpoints, bounds or
// derived structures repeatedly should take *Compiled.  Compiling is cheap
// (linear in the arc count) but not free, so callers that solve the same
// instance more than once must compile once and reuse the result; all
// lazily derived state is safe for concurrent readers.

// SpaceSaturation is the cap at which multiplicative size estimates
// (AssignmentSpace) saturate: large enough that every routing threshold
// compares below it, small enough that the product never overflows int64.
const SpaceSaturation = int64(1) << 40

// Compiled is the immutable preprocessed form of an Instance.  Construct
// with Compile; never mutate any field or returned slice.
type Compiled struct {
	// Inst is the underlying validated instance.
	Inst *Instance

	// CSR adjacency: the arcs leaving node v are OutArcs[OutStart[v] :
	// OutStart[v+1]], those entering it InArcs[InStart[v] : InStart[v+1]].
	// ArcFrom and ArcTo give each arc's endpoints without an Edge struct
	// lookup.  Hot search loops iterate these contiguous arrays instead of
	// chasing the graph's per-node slices.
	OutStart []int32
	OutArcs  []int32
	InStart  []int32
	InArcs   []int32
	ArcFrom  []int32
	ArcTo    []int32

	// Topo is a topological order of the nodes.
	Topo []int

	// Tuples[e] is Fns[e].Tuples(), materialized once for every arc.
	Tuples [][]duration.Tuple

	// MinDur[e] is arc e's unlimited-resource duration; MinMakespan is the
	// longest path under MinDur: the floor no flow can beat.
	MinDur      []int64
	MinMakespan int64

	// MaxUsefulBudget is Instance.MaxUsefulBudget: a finite budget beyond
	// which extra resources cannot help.
	MaxUsefulBudget int64

	// AssignmentSpace is the product of per-arc breakpoint counts - the
	// exact search's tuple-assignment space - saturating at SpaceSaturation.
	AssignmentSpace int64

	// ExpandedArcs counts the arcs of the Section 3.1 two-tuple form D”:
	// one per single-tuple arc, two per breakpoint otherwise.  It sizes
	// the dense LP, which has one flow variable per chain.
	ExpandedArcs int64

	hashOnce sync.Once
	hash     string

	sketchOnce sync.Once
	sketch     string

	classOnce sync.Once
	class     string

	envOnce sync.Once
	env     *Envelopes

	levelsOnce sync.Once
	levels     *Levels

	memoMu sync.Mutex
	memo   map[string]any
}

// Compile derives the compiled form of a validated instance.  The instance
// must have been built by NewInstance (or an equivalent validated path) and
// must not change afterwards.  The eager work is linear in the arc count;
// the canonical hash, duration class, envelopes and level schedule are
// derived lazily on first use and cached.
func Compile(inst *Instance) *Compiled {
	g := inst.G
	n, m := g.NumNodes(), g.NumEdges()
	topo, err := g.TopoOrder()
	if err != nil {
		panic(err) // instance was validated
	}
	c := &Compiled{
		Inst:     inst,
		OutStart: make([]int32, n+1),
		OutArcs:  make([]int32, m),
		InStart:  make([]int32, n+1),
		InArcs:   make([]int32, m),
		ArcFrom:  make([]int32, m),
		ArcTo:    make([]int32, m),
		Topo:     topo,
		Tuples:   make([][]duration.Tuple, m),
		MinDur:   make([]int64, m),
	}
	// CSR adjacency: node v's offsets are final once v-1's arcs are in.
	for v := 0; v < n; v++ {
		out, in := c.OutStart[v], c.InStart[v]
		for _, e := range g.Out(v) {
			c.OutArcs[out] = int32(e)
			out++
		}
		for _, e := range g.In(v) {
			c.InArcs[in] = int32(e)
			in++
		}
		c.OutStart[v+1], c.InStart[v+1] = out, in
	}
	// Per-arc derivations: endpoints, materialized breakpoint tuples,
	// unlimited-resource durations, and the aggregate bounds.
	budget, expanded, space := int64(0), int64(0), int64(1)
	for e := 0; e < m; e++ {
		ed := g.Edge(e)
		c.ArcFrom[e] = int32(ed.From)
		c.ArcTo[e] = int32(ed.To)
		ts := inst.Fns[e].Tuples()
		c.Tuples[e] = ts
		c.MinDur[e] = ts[len(ts)-1].T
		budget += ts[len(ts)-1].R
		if space < SpaceSaturation {
			space *= int64(len(ts))
			if space > SpaceSaturation {
				space = SpaceSaturation
			}
		}
		if len(ts) == 1 {
			expanded++
		} else {
			expanded += 2 * int64(len(ts))
		}
	}
	c.MaxUsefulBudget, c.ExpandedArcs, c.AssignmentSpace = budget, expanded, space
	c.MinMakespan = c.LongestPath(c.MinDur, make([]int64, n))
	return c
}

// Hash returns the canonical instance hash (Instance.CanonicalHash),
// computed once and cached: the identity under which caches key results
// and compiled instances.
func (c *Compiled) Hash() string {
	c.hashOnce.Do(func() { c.hash = c.Inst.CanonicalHash() })
	return c.hash
}

// Class returns the most specific duration class covering every arc
// (duration.Classify), computed once and cached.
func (c *Compiled) Class() string {
	c.classOnce.Do(func() { c.class = duration.Classify(c.Inst.Fns) })
	return c.class
}

// Envelopes returns the per-arc lower convex envelopes of the duration
// breakpoints, built once and cached.  The relaxation engine evaluates
// them on every Frank-Wolfe iteration.
func (c *Compiled) Envelopes() *Envelopes {
	c.envOnce.Do(func() { c.env = buildEnvelopes(c.Tuples) })
	return c.env
}

// Memo returns the value cached under key, building it with build on first
// use.  Consumer packages memoize their per-instance derivations here (the
// series-parallel decomposition, for one) without core having to know
// their types.  build runs under the memo lock, so concurrent callers of
// the same key wait for one computation instead of duplicating it.
func (c *Compiled) Memo(key string, build func() any) any {
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	if v, ok := c.memo[key]; ok {
		return v
	}
	v := build()
	if c.memo == nil {
		c.memo = make(map[string]any)
	}
	c.memo[key] = v
	return v
}
