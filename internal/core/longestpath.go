package core

// This file holds the one integral longest-path kernel.  In the paper's
// project-network reading (Section 2) the makespan of a flow is the
// longest source-to-sink path under the durations the flow induces; every
// integral evaluation of it - search nodes, bounds, solution validation -
// goes through LongestPath or ReverseLongestPath.  Both sweep the compiled
// CSR adjacency in the precomputed topological order, write only
// caller-owned scratch and allocate nothing, so the exact search can run
// them several times per node.

// LongestPath fills et with every node's longest-path distance from the
// source under the per-arc durations d (its earliest event time) and
// returns the sink's, which is the makespan.  d needs one entry per arc
// and et one per node; neither length is checked.
//
//rt:hotpath — up to three sweeps per exact search node.
func (c *Compiled) LongestPath(d, et []int64) int64 {
	for i := range et {
		et[i] = 0
	}
	for _, v := range c.Topo {
		tv := et[v]
		for i := c.OutStart[v]; i < c.OutStart[v+1]; i++ {
			e := c.OutArcs[i]
			if cand := tv + d[e]; cand > et[c.ArcTo[e]] {
				et[c.ArcTo[e]] = cand
			}
		}
	}
	return et[c.Inst.Sink]
}

// ReverseLongestPath is LongestPath mirrored: it fills rt with every
// node's longest-path distance to the sink (the work still ahead after
// its event) and returns the source's, which is the makespan again.  So
// et[u] + d[e] + rt[v] is the longest source-to-sink path through arc
// e = (u, v).
//
//rt:hotpath — the mirror of LongestPath.
func (c *Compiled) ReverseLongestPath(d, rt []int64) int64 {
	for i := range rt {
		rt[i] = 0
	}
	for i := len(c.Topo) - 1; i >= 0; i-- {
		v := c.Topo[i]
		best := int64(0)
		for j := c.OutStart[v]; j < c.OutStart[v+1]; j++ {
			e := c.OutArcs[j]
			if cand := rt[c.ArcTo[e]] + d[e]; cand > best {
				best = cand
			}
		}
		rt[v] = best
	}
	return rt[c.Inst.Source]
}

// Makespan returns the longest-path length under the durations induced by
// flow f.  It does not check flow validity; see Instance.ValidateFlow.
func (c *Compiled) Makespan(f []int64) (int64, error) {
	d, err := c.Inst.Durations(f)
	if err != nil {
		return 0, err
	}
	return c.LongestPath(d, make([]int64, len(c.Topo))), nil
}

// ZeroFlowMakespan is the makespan with no resources at all.
func (c *Compiled) ZeroFlowMakespan() int64 {
	m, err := c.Makespan(make([]int64, len(c.MinDur)))
	if err != nil {
		panic(err) // the zero flow has one entry per arc
	}
	return m
}

// NewSolution validates f and computes its value and makespan.
func (c *Compiled) NewSolution(f []int64) (Solution, error) {
	if err := c.Inst.ValidateFlow(f, -1); err != nil {
		return Solution{}, err
	}
	m, err := c.Makespan(f)
	if err != nil {
		return Solution{}, err
	}
	return Solution{Flow: f, Value: c.Inst.FlowValue(f), Makespan: m}, nil
}
