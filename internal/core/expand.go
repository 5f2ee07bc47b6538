package core

import (
	"repro/internal/dag"
	"repro/internal/duration"
)

// ChainLink describes one of the parallel two-edge chains that replace a
// multi-tuple arc in the Section 3.1 expansion (Figure 6).  Chain i of job
// j can be finished either with 0 resource in Time units, or with Delta
// resource in 0 units; the final chain of a job has Delta == 0 and is a
// pure floor at Time.
type ChainLink struct {
	JobArc  int   // expanded arc (u, u_i) carrying the chain's job
	FreeArc int   // expanded arc (u_i, v) with constant zero duration
	Delta   int64 // resource that zeroes the chain (0 on the last chain)
	Time    int64 // zero-resource duration of the chain
}

// Expanded is the D” form of an instance - every arc has at most two
// resource-time tuples, of the shape {<0,t>, <delta,0>} or {<0,t>} - plus
// the bookkeeping that ties its arcs to the original ones.
type Expanded struct {
	*Instance
	// Chains[e] lists the parallel chains that replaced original arc e;
	// it is nil when the arc was copied verbatim (single-tuple arcs).
	Chains [][]ChainLink
	// CopiedArc[e] is the expanded arc ID of a verbatim-copied arc, or -1.
	CopiedArc []int
}

// Expand applies the Figure 6 transformation to inst: each arc whose
// duration function has l >= 2 breakpoints <r_i, t_i> becomes l parallel
// chains; chain i (i < l) has tuples {<0, t_i>, <r_{i+1}-r_i, 0>} and chain
// l has the single tuple {<0, t_l>}.  Arcs with a single breakpoint are
// copied unchanged.  The expanded graph reuses the original node IDs and
// appends the chain midpoints after them.
func Expand(inst *Instance) (*Expanded, error) {
	g := dag.New()
	for v := 0; v < inst.G.NumNodes(); v++ {
		g.AddNode(inst.G.Name(v))
	}
	var fns []duration.Func
	ex := &Expanded{
		Chains:    make([][]ChainLink, inst.G.NumEdges()),
		CopiedArc: make([]int, inst.G.NumEdges()),
	}
	for e := 0; e < inst.G.NumEdges(); e++ {
		ed := inst.G.Edge(e)
		tuples := inst.Fns[e].Tuples()
		if len(tuples) == 1 {
			id := g.AddEdge(ed.From, ed.To)
			fns = append(fns, duration.Constant(tuples[0].T))
			ex.CopiedArc[e] = id
			continue
		}
		ex.CopiedArc[e] = -1
		links := make([]ChainLink, len(tuples))
		for i, tp := range tuples {
			mid := g.AddNode(inst.G.Name(ed.From) + "~" + inst.G.Name(ed.To))
			jobArc := g.AddEdge(ed.From, mid)
			freeArc := g.AddEdge(mid, ed.To)
			link := ChainLink{JobArc: jobArc, FreeArc: freeArc, Time: tp.T}
			if i+1 < len(tuples) {
				link.Delta = tuples[i+1].R - tp.R
				fns = append(fns, duration.MustStep(
					duration.Tuple{R: 0, T: tp.T},
					duration.Tuple{R: link.Delta, T: 0},
				))
			} else {
				fns = append(fns, duration.Constant(tp.T))
			}
			links[i] = link
			fns = append(fns, duration.Constant(0)) // the free arc
		}
		ex.Chains[e] = links
	}
	expanded, err := NewInstance(g, fns)
	if err != nil {
		return nil, err
	}
	ex.Instance = expanded
	return ex, nil
}
