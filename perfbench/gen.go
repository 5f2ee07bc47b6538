package main

// Instance generators.  The benchmark writes its own instance documents
// (the rtserve wire form, {nodes, edges[{from, to, fn}]}) instead of
// borrowing the repository's scenario package, so the inputs of a given
// seed stay byte-identical while the program under test changes.

import (
	"fmt"
	"math/rand"
	"strconv"
)

// tuple is one resource-time breakpoint <r, t>.
type tuple struct{ r, t int64 }

// fnSpec is a duration function in wire form: kind "const" and "kway" and
// "binary" use t0, kind "step" uses tuples.
type fnSpec struct {
	kind   string
	t0     int64
	tuples []tuple
}

// arc is one job: an edge of the DAG with its duration function.
type arc struct {
	from, to int
	fn       fnSpec
}

// instance is a generated DAG in arc form; node 0 is the source and node
// nodes-1 the sink.
type instance struct {
	nodes int
	arcs  []arc
	names []string // nil: nodes are named n0, n1, ...
}

// route names, in the order the mix tables list them.
const (
	routeSP         = "spdp"
	routeExact      = "exact"
	routeKWay       = "kway5"
	routeBinary     = "binary4"
	routeBicriteria = "bicriteria"
	routeFW         = "frankwolfe"
)

// routes lists the six routes auto dispatches the fresh mix to.
var routes = []string{routeSP, routeExact, routeKWay, routeBinary, routeBicriteria, routeFW}

// appendJSON encodes the instance document.  Hand-rolled because load
// clients re-encode instances between requests and must stay cheap.
func (in *instance) appendJSON(b []byte) []byte {
	b = append(b, `{"nodes":[`...)
	for v := 0; v < in.nodes; v++ {
		if v > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		if in.names != nil {
			b = append(b, in.names[v]...)
		} else {
			b = append(b, 'n')
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, '"')
	}
	b = append(b, `],"edges":[`...)
	for i, a := range in.arcs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"from":`...)
		b = strconv.AppendInt(b, int64(a.from), 10)
		b = append(b, `,"to":`...)
		b = strconv.AppendInt(b, int64(a.to), 10)
		b = append(b, `,"fn":{"kind":"`...)
		b = append(b, a.fn.kind...)
		b = append(b, '"')
		if a.fn.kind == "step" {
			b = append(b, `,"tuples":[`...)
			for j, tp := range a.fn.tuples {
				if j > 0 {
					b = append(b, ',')
				}
				b = append(b, `{"r":`...)
				b = strconv.AppendInt(b, tp.r, 10)
				b = append(b, `,"t":`...)
				b = strconv.AppendInt(b, tp.t, 10)
				b = append(b, '}')
			}
			b = append(b, ']')
		} else {
			b = append(b, `,"t0":`...)
			b = strconv.AppendInt(b, a.fn.t0, 10)
		}
		b = append(b, `}}`...)
	}
	return append(b, `]}`...)
}

// stepFn draws a step function with exactly n breakpoints: base duration
// in [n+maxT0/2, n+maxT0], strictly decreasing times, resource steps in
// [1, maxR].
func stepFn(rng *rand.Rand, n int, maxT0, maxR int64) fnSpec {
	t := int64(n) + maxT0/2 + rng.Int63n(maxT0/2+1)
	if n == 1 {
		return fnSpec{kind: "const", t0: t}
	}
	ts := make([]tuple, n)
	r := int64(0)
	for i := 0; i < n; i++ {
		ts[i] = tuple{r, t}
		r += 1 + rng.Int63n(maxR)
		// Leave room for the remaining strictly smaller times.
		rest := int64(n - 1 - i)
		t = rest + rng.Int63n(t-rest)
	}
	return fnSpec{kind: "step", tuples: ts}
}

// layered builds a single-source single-sink layered DAG: each node of a
// layer hangs off a random node of the previous layer, extra random arcs
// join consecutive layers, and every node without a successor feeds the
// sink.  The first two layers always contain a Wheatstone bridge, so the
// DAG is never series-parallel.  fn draws each arc's duration function.
func layered(rng *rand.Rand, layers, width, extra int, fn func() fnSpec) *instance {
	if layers < 2 || width < 2 {
		panic("layered: need at least 2 layers of width 2")
	}
	in := &instance{}
	node := func() int { in.nodes++; return in.nodes - 1 }
	add := func(u, v int) { in.arcs = append(in.arcs, arc{from: u, to: v}) }
	s := node()
	prev := []int{s}
	hasOut := map[int]bool{}
	for l := 0; l < layers; l++ {
		layer := make([]int, width)
		for i := range layer {
			layer[i] = node()
			p := prev[rng.Intn(len(prev))]
			if l == 1 && i < 2 {
				p = prev[0] // bridge: prev[0] feeds layer[0] and layer[1] ...
			}
			add(p, layer[i])
			hasOut[p] = true
		}
		if l == 1 {
			add(prev[1], layer[1]) // ... and prev[1] feeds layer[1] as well
			hasOut[prev[1]] = true
		}
		for i := 0; i < extra; i++ {
			p := prev[rng.Intn(len(prev))]
			add(p, layer[rng.Intn(width)])
			hasOut[p] = true
		}
		prev = layer
	}
	t := node()
	for v := 1; v < t; v++ {
		if !hasOut[v] {
			add(v, t)
		}
	}
	for i := range in.arcs {
		in.arcs[i].fn = fn()
	}
	return in
}

// seriesParallel builds a random two-terminal series-parallel DAG with
// the given number of arcs by repeatedly splitting a random arc in series
// (a new midpoint) or in parallel (a twin arc).  Node numbering keeps the
// source at 0 and the sink last.
func seriesParallel(rng *rand.Rand, leaves int, fn func() fnSpec) *instance {
	type e struct{ u, v int }
	es := []e{{0, 1}}
	nodes := 2
	for len(es) < leaves {
		i := rng.Intn(len(es))
		if rng.Intn(2) == 0 {
			m := nodes
			nodes++
			es = append(es, e{m, es[i].v})
			es[i].v = m
		} else {
			es = append(es, es[i])
		}
	}
	// Renumber so the sink (node 1) is last: it is the only node with no
	// out-arcs, and the wire form needs no particular order otherwise.
	relabel := func(v int) int {
		switch {
		case v == 1:
			return nodes - 1
		case v > 1:
			return v - 1
		}
		return v
	}
	in := &instance{nodes: nodes}
	for _, a := range es {
		in.arcs = append(in.arcs, arc{from: relabel(a.u), to: relabel(a.v), fn: fn()})
	}
	return in
}

// kwayFn and binaryFn draw class-pure duration functions.
func kwayFn(rng *rand.Rand, maxT0 int64) fnSpec {
	return fnSpec{kind: "kway", t0: 4 + rng.Int63n(maxT0-3)}
}

func binaryFn(rng *rand.Rand, maxT0 int64) fnSpec {
	return fnSpec{kind: "binary", t0: 4 + rng.Int63n(maxT0-3)}
}

// genRequest is one generated solve: the instance document, its budget and
// the route the mix intends auto to take.
type genRequest struct {
	route  string
	budget int64
	inst   *instance
}

// body renders the request as the JSON body of POST /v1/solve.
func (g *genRequest) body() []byte {
	b := make([]byte, 0, 64+32*len(g.inst.arcs))
	b = append(b, `{"solver":"auto","options":{"budget":`...)
	b = strconv.AppendInt(b, g.budget, 10)
	b = append(b, `},"instance":`...)
	b = g.inst.appendJSON(b)
	return append(b, '}')
}

// genRoute draws one instance meant for the given auto route.  Sizes are
// chosen so that each solve costs roughly 0.1-50 ms on one core and the
// route is unambiguous under auto's dispatch rules: series-parallel
// first, then k-way/binary classes while the dense LP is affordable, then
// exact while the assignment space is at most 2^20, then bicriteria while
// the expansion is at most 768 arcs, then frankwolfe.
func genRoute(rng *rand.Rand, route string) *genRequest {
	g := &genRequest{route: route, budget: 4 + rng.Int63n(12)}
	switch route {
	case routeSP:
		g.inst = seriesParallel(rng, 60+rng.Intn(60), func() fnSpec { return stepFn(rng, 1+rng.Intn(4), 30, 4) })
		g.budget = 8 + rng.Int63n(16)
	case routeKWay:
		g.inst = layered(rng, 3, 3, 2, func() fnSpec { return kwayFn(rng, 20) })
	case routeBinary:
		g.inst = layered(rng, 3, 3, 2, func() fnSpec { return binaryFn(rng, 24) })
	case routeExact:
		// 2^20 caps the assignment space: ten 3-4 breakpoint arcs, the
		// rest constant.
		steps := 0
		g.inst = layered(rng, 3, 3, 2, func() fnSpec {
			if steps < 10 && rng.Intn(2) == 0 {
				steps++
				return stepFn(rng, 3+rng.Intn(2), 30, 3)
			}
			return stepFn(rng, 1, 30, 3)
		})
	case routeBicriteria:
		g.inst = layered(rng, 3, 4, 3, func() fnSpec { return stepFn(rng, 3, 30, 4) })
	case routeFW:
		g.inst = layered(rng, 8, 8, 6, func() fnSpec { return stepFn(rng, 6+rng.Intn(5), 60, 4) })
		g.budget = 20 + rng.Int63n(40)
	default:
		panic(fmt.Sprintf("genRoute: unknown route %q", route))
	}
	return g
}
