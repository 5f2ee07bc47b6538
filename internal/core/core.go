// Package core defines the discrete resource-time tradeoff instances of
// Das et al. (SPAA 2019) and the transformations between their three
// equivalent representations:
//
//   - VertexInstance: jobs on vertices (the race DAG D(P) of Section 1,
//     where a vertex is a memory cell whose work is its in-degree);
//   - Instance: jobs on arcs (the activity-on-arc form D' of Section 2);
//   - Expansion: arcs with at most two resource-time tuples (the form D”
//     of Section 3.1, Figure 6, consumed by the LP relaxation).
//
// A solution to either optimization problem is an integral source-to-sink
// flow: f_e units of resource routed through arc e let its job finish in
// t_e(f_e) time, and the makespan is the longest path under those
// durations.  Resources are reused along paths - the same unit serves every
// arc it traverses - which is the defining feature of the paper's model
// (Question 1.3).
//
// Instance is the construction and wire form; Compiled (see Compile) is
// the solve form: an immutable preprocessed view - CSR adjacency,
// topological order, canonical hash, breakpoint tables, convex envelopes,
// combinatorial bounds, and lazily derived expansion/recognition results -
// shared by every solver layer.  Compile once, solve many.
package core

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/duration"
	"repro/internal/flow"
)

// Instance is an activity-on-arc problem instance: a single-source
// single-sink DAG whose every arc carries a non-increasing duration
// function.
type Instance struct {
	G      *dag.Graph
	Fns    []duration.Func // per arc, indexed by edge ID
	Source int
	Sink   int
}

// NewInstance validates the graph (single source, single sink, acyclic,
// every node on a source-sink path) and pairs it with per-arc duration
// functions.
func NewInstance(g *dag.Graph, fns []duration.Func) (*Instance, error) {
	if len(fns) != g.NumEdges() {
		return nil, fmt.Errorf("core: %d duration functions for %d arcs", len(fns), g.NumEdges())
	}
	for e, fn := range fns {
		if fn == nil {
			return nil, fmt.Errorf("core: nil duration function on arc %d", e)
		}
	}
	s, t, err := g.Validate()
	if err != nil {
		return nil, err
	}
	return &Instance{G: g, Fns: fns, Source: s, Sink: t}, nil
}

// MustInstance is NewInstance that panics on error; for tests and for
// gadget constructions that are correct by construction.
func MustInstance(g *dag.Graph, fns []duration.Func) *Instance {
	inst, err := NewInstance(g, fns)
	if err != nil {
		panic(err)
	}
	return inst
}

// Durations evaluates every arc's duration under the given flow.
func (inst *Instance) Durations(f []int64) ([]int64, error) {
	if len(f) != inst.G.NumEdges() {
		return nil, fmt.Errorf("core: %d flows for %d arcs", len(f), inst.G.NumEdges())
	}
	d := make([]int64, len(f))
	for e, fn := range inst.Fns {
		d[e] = fn.Eval(f[e])
	}
	return d, nil
}

// FlowValue returns the net flow out of the source.
func (inst *Instance) FlowValue(f []int64) int64 {
	var v int64
	for _, e := range inst.G.Out(inst.Source) {
		v += f[e]
	}
	for _, e := range inst.G.In(inst.Source) {
		v -= f[e]
	}
	return v
}

// ValidateFlow checks that f is a non-negative conserved source-to-sink
// flow of value at most budget (budget < 0 skips the budget check).
func (inst *Instance) ValidateFlow(f []int64, budget int64) error {
	v, err := flow.Conserved(inst.G, f, inst.Source, inst.Sink)
	if err != nil {
		return err
	}
	if budget >= 0 && v > budget {
		return fmt.Errorf("core: flow value %d exceeds budget %d", v, budget)
	}
	return nil
}

// Solution bundles a validated flow with its derived metrics; build one
// with Compiled.NewSolution.
type Solution struct {
	Flow     []int64
	Value    int64 // resources leaving the source
	Makespan int64
}

// MaxUsefulBudget returns a finite budget beyond which extra resources
// cannot help: enough to saturate every arc's last breakpoint along
// disjoint unit paths.
func (inst *Instance) MaxUsefulBudget() int64 {
	var total int64
	for _, fn := range inst.Fns {
		total += duration.MaxUsefulResource(fn)
	}
	return total
}
