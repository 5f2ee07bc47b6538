// This file holds the seeded workload generator that package scenario's
// families are built from: layered random DAGs with random duration
// functions, random series-parallel instances, and fork-join shapes.
// Everything is seeded, so benchmarks and experiments are reproducible run
// to run.  It absorbed the former internal/gen package: the generator and
// the scenario catalog are one subsystem, and the catalog's Specs are the
// preferred way to name an instance.
package scenario

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/duration"
	"repro/internal/sp"
)

// Gen is a seeded generator.
type Gen struct {
	rng *rand.Rand
}

// NewGen returns a deterministic generator with the given seed.
func NewGen(seed int64) *Gen { return &Gen{rng: rand.New(rand.NewSource(seed))} }

// Intn exposes the generator's deterministic stream for callers composing
// their own shapes (the scenario families build DAG layouts with it).
func (g *Gen) Intn(n int) int { return g.rng.Intn(n) }

// Int63n is Intn for int64 ranges.
func (g *Gen) Int63n(n int64) int64 { return g.rng.Int63n(n) }

// Layered builds a single-source single-sink DAG with the given number of
// internal layers and layer width; extra controls additional random
// cross-layer arcs beyond the spanning ones.
func (g *Gen) Layered(layers, width, extra int) *dag.Graph {
	d := dag.New()
	s := d.AddNode("s")
	prev := []int{s}
	for l := 0; l < layers; l++ {
		var layer []int
		for i := 0; i < width; i++ {
			v := d.AddNode("v")
			layer = append(layer, v)
			d.AddEdge(prev[g.rng.Intn(len(prev))], v)
		}
		for i := 0; i < extra; i++ {
			d.AddEdge(prev[g.rng.Intn(len(prev))], layer[g.rng.Intn(len(layer))])
		}
		prev = layer
	}
	t := d.AddNode("t")
	for _, v := range prev {
		d.AddEdge(v, t)
	}
	// Tie off any internal node that ended up with no outgoing arc.
	for v := 0; v < d.NumNodes(); v++ {
		if v != t && d.OutDegree(v) == 0 {
			d.AddEdge(v, t)
		}
	}
	return d
}

// StepFunc returns a random non-increasing step function with up to
// maxTuples breakpoints, base duration in [1, maxT0] and per-step resource
// increments in [1, maxR].
func (g *Gen) StepFunc(maxTuples int, maxT0, maxR int64) duration.Func {
	t0 := 1 + g.rng.Int63n(maxT0)
	tuples := []duration.Tuple{{R: 0, T: t0}}
	r, t := int64(0), t0
	for i := 1; i < maxTuples && t > 0; i++ {
		if g.rng.Intn(3) == 0 {
			break
		}
		r += 1 + g.rng.Int63n(maxR)
		t = g.rng.Int63n(t)
		tuples = append(tuples, duration.Tuple{R: r, T: t})
	}
	fn, err := duration.NewStep(tuples)
	if err != nil {
		panic(err) // construction keeps the invariants
	}
	return fn
}

// StepInstance builds a layered instance with random step functions.
func (g *Gen) StepInstance(layers, width, extra, maxTuples int, maxT0, maxR int64) *core.Instance {
	d := g.Layered(layers, width, extra)
	fns := make([]duration.Func, d.NumEdges())
	for e := range fns {
		fns[e] = g.StepFunc(maxTuples, maxT0, maxR)
	}
	return core.MustInstance(d, fns)
}

// KWayInstance builds a layered instance whose jobs all use k-way
// splitting with base durations in [1, maxT0].
func (g *Gen) KWayInstance(layers, width, extra int, maxT0 int64) *core.Instance {
	d := g.Layered(layers, width, extra)
	fns := make([]duration.Func, d.NumEdges())
	for e := range fns {
		fns[e] = duration.NewKWay(1 + g.rng.Int63n(maxT0))
	}
	return core.MustInstance(d, fns)
}

// BinaryInstance builds a layered instance whose jobs all use recursive
// binary splitting with base durations in [1, maxT0].
func (g *Gen) BinaryInstance(layers, width, extra int, maxT0 int64) *core.Instance {
	d := g.Layered(layers, width, extra)
	fns := make([]duration.Func, d.NumEdges())
	for e := range fns {
		fns[e] = duration.NewRecursiveBinary(1 + g.rng.Int63n(maxT0))
	}
	return core.MustInstance(d, fns)
}

// SPTree builds a random series-parallel decomposition tree with the given
// number of leaves; leaf jobs are random step functions.
func (g *Gen) SPTree(leaves int, maxTuples int, maxT0, maxR int64) *sp.Tree {
	if leaves == 1 {
		return sp.Leaf(g.StepFunc(maxTuples, maxT0, maxR))
	}
	split := 1 + g.rng.Intn(leaves-1)
	l, r := g.SPTree(split, maxTuples, maxT0, maxR), g.SPTree(leaves-split, maxTuples, maxT0, maxR)
	if g.rng.Intn(2) == 0 {
		return sp.Series(l, r)
	}
	return sp.Parallel(l, r)
}

// Request is one entry of a synthetic solve-request stream: an instance
// plus an objective (exactly one of Budget and Target is >= 0).
type Request struct {
	Inst   *core.Instance
	Budget int64 // >= 0 selects min-makespan mode
	Target int64 // >= 0 selects min-resource mode
}

// RequestStream builds a deterministic stream of n solve requests drawn
// from a pool of distinct small instances that mixes the three duration
// classes.  Requests repeat instances (and often exact instance/objective
// pairs) by construction: repeated identical inputs are the defining
// feature of service traffic, and the repetition rate is what result
// caching and single-flight de-duplication feed on in load tests.  Every
// generated request is solvable — budgets are small positive values and
// targets are the always-reachable zero-flow makespan — so a load driver
// can assert zero errors end to end.
func (g *Gen) RequestStream(n, distinct int) []Request {
	if distinct < 1 {
		distinct = 1
	}
	pool := make([]*core.Instance, distinct)
	for i := range pool {
		switch i % 3 {
		case 0:
			pool[i] = g.StepInstance(2, 2, 1, 3, 9, 3)
		case 1:
			pool[i] = g.KWayInstance(2, 2, 1, 30)
		default:
			pool[i] = g.BinaryInstance(2, 2, 1, 30)
		}
	}
	reqs := make([]Request, n)
	for i := range reqs {
		inst := pool[g.rng.Intn(distinct)]
		req := Request{Inst: inst, Budget: -1, Target: -1}
		if g.rng.Intn(4) == 0 {
			req.Target = core.Compile(inst).ZeroFlowMakespan()
		} else {
			req.Budget = 1 + g.rng.Int63n(4)
		}
		reqs[i] = req
	}
	return reqs
}

// ForkJoin builds the classic fork-join instance: stages of width parallel
// jobs between synchronization points, all jobs using the given duration
// class ("kway", "binary" or "step").
func (g *Gen) ForkJoin(stages, width int, kind string, maxT0 int64) *core.Instance {
	d := dag.New()
	prev := d.AddNode("s")
	var fns []duration.Func
	mk := func() duration.Func {
		t0 := 1 + g.rng.Int63n(maxT0)
		switch kind {
		case duration.KindKWay:
			return duration.NewKWay(t0)
		case duration.KindBinary:
			return duration.NewRecursiveBinary(t0)
		default:
			return g.StepFunc(3, maxT0, 3)
		}
	}
	for s := 0; s < stages; s++ {
		next := d.AddNode("j")
		for w := 0; w < width; w++ {
			mid := d.AddNode("w")
			d.AddEdge(prev, mid)
			fns = append(fns, mk())
			d.AddEdge(mid, next)
			fns = append(fns, duration.Constant(0))
		}
		prev = next
	}
	return core.MustInstance(d, fns)
}
