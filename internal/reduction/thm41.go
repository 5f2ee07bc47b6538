package reduction

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/duration"
)

// VarGadget41 records the node IDs of one Theorem 4.1 variable gadget
// (Figure 8a).  Sending the gadget's single unit of resource through V2
// sets the variable TRUE; through V3, FALSE.
type VarGadget41 struct {
	V1, V2, V3, V4, V5, V6 int
}

// ClauseGadget41 records the node IDs of one Theorem 4.1 clause gadget
// (Figure 8b).  C5, C6 and C7 are the three pattern vertices; exactly one
// of them starts at time 0 iff the clause has exactly one true literal.
type ClauseGadget41 struct {
	C1, C2, C3, C4, C5, C6, C7, C8, C9, C10 int
}

// Thm41 is the Theorem 4.1 construction: a resource-time instance with
// general non-increasing (two-tuple) duration functions such that makespan
// 1 is reachable with budget n + 2m iff the formula is 1-in-3 satisfiable.
type Thm41 struct {
	Formula Formula
	Inst    *core.Instance
	Budget  int64 // n + 2m
	Target  int64 // 1
	Vars    []VarGadget41
	Clauses []ClauseGadget41

	source, sink int
	// compiled is Inst's compiled form, built once for Table2Row's
	// longest-path sweeps.
	compiled *core.Compiled
	// edge IDs needed to assemble witness flows
	varEdges    []thm41VarEdges
	clauseEdges []thm41ClauseEdges
}

type thm41VarEdges struct {
	sV1, v1V2, v1V3, v2V4, v3V4, v4V5, v5V6, v6T int
}

type thm41ClauseEdges struct {
	sC1, c1C2, c2C4, c1C3, c3C4 int
	c4C5, c4C6, c4C7            int
	c5C8, c6C9, c7C10           int
	c8T, c9T, c10T              int
	litC5, litC6, litC7         [3]int
}

// zeroOne is the {<0,1>, <1,0>} duration of the gadget choice arcs.
func zeroOne() duration.Func {
	return duration.MustStep(duration.Tuple{R: 0, T: 1}, duration.Tuple{R: 1, T: 0})
}

// BuildThm41 constructs the Theorem 4.1 reduction for f.
//
// Gadget wiring (reconstructed from the prose of Section 4.1; Figures 8-9
// are drawings): per variable, S -> V1 branches to V2 (TRUE) and V3
// (FALSE) with {<0,1>,<1,0>} arcs, rejoins at V4 via zero arcs, and exits
// through V4 -> V5 with {<0,2>,<1,0>} - the 2 forces the variable's unit
// to stay on its own path instead of leaking into a clause - then V5 ->
// V6 -> T with zero arcs.  Per clause, S -> C1 splits into the two
// two-arc chains C1->C2->C4 and C1->C3->C4 (each arc {<0,1>,<1,0>}, so one
// unit flowing down a chain zeroes both of its arcs - resource reuse over
// a path), C4 fans out to the three pattern vertices C5/C6/C7 via zero
// arcs, each pattern vertex is written by three variable-gadget vertices
// (V2 of a variable for a positive occurrence of the pattern, V3 for a
// negative one) via zero arcs, and each pattern vertex exits through a
// {<0,1>,<1,0>} arc to C8/C9/C10 and then to T.
func BuildThm41(f Formula) (*Thm41, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	g := dag.New()
	var fns []duration.Func
	addEdge := func(u, v int, fn duration.Func) int {
		id := g.AddEdge(u, v)
		fns = append(fns, fn)
		return id
	}
	zero := duration.Constant(0)

	s := g.AddNode("S")
	t := g.AddNode("T")
	r := &Thm41{
		Formula: f,
		Budget:  int64(f.NumVars + 2*len(f.Clauses)),
		Target:  1,
		source:  s,
		sink:    t,
	}

	for i := 0; i < f.NumVars; i++ {
		vg := VarGadget41{
			V1: g.AddNode(fmt.Sprintf("V%d_1", i)),
			V2: g.AddNode(fmt.Sprintf("V%d_2", i)),
			V3: g.AddNode(fmt.Sprintf("V%d_3", i)),
			V4: g.AddNode(fmt.Sprintf("V%d_4", i)),
			V5: g.AddNode(fmt.Sprintf("V%d_5", i)),
			V6: g.AddNode(fmt.Sprintf("V%d_6", i)),
		}
		ve := thm41VarEdges{
			sV1:  addEdge(s, vg.V1, zero),
			v1V2: addEdge(vg.V1, vg.V2, zeroOne()),
			v1V3: addEdge(vg.V1, vg.V3, zeroOne()),
			v2V4: addEdge(vg.V2, vg.V4, zero),
			v3V4: addEdge(vg.V3, vg.V4, zero),
			v4V5: addEdge(vg.V4, vg.V5, duration.MustStep(
				duration.Tuple{R: 0, T: 2}, duration.Tuple{R: 1, T: 0})),
			v5V6: addEdge(vg.V5, vg.V6, zero),
		}
		ve.v6T = addEdge(vg.V6, t, zero)
		r.Vars = append(r.Vars, vg)
		r.varEdges = append(r.varEdges, ve)
	}

	// litNode returns the variable-gadget vertex that finishes at time 0
	// exactly when literal l evaluates to val.
	litNode := func(l Literal, val bool) int {
		vg := r.Vars[l.Var]
		if l.Neg != val {
			return vg.V2 // needs the variable TRUE
		}
		return vg.V3 // needs the variable FALSE
	}

	for j, c := range f.Clauses {
		cg := ClauseGadget41{
			C1: g.AddNode(fmt.Sprintf("C%d_1", j)),
			C2: g.AddNode(fmt.Sprintf("C%d_2", j)),
			C3: g.AddNode(fmt.Sprintf("C%d_3", j)),
			C4: g.AddNode(fmt.Sprintf("C%d_4", j)),
		}
		cg.C5 = g.AddNode(fmt.Sprintf("C%d_5", j))
		cg.C6 = g.AddNode(fmt.Sprintf("C%d_6", j))
		cg.C7 = g.AddNode(fmt.Sprintf("C%d_7", j))
		cg.C8 = g.AddNode(fmt.Sprintf("C%d_8", j))
		cg.C9 = g.AddNode(fmt.Sprintf("C%d_9", j))
		cg.C10 = g.AddNode(fmt.Sprintf("C%d_10", j))

		ce := thm41ClauseEdges{
			sC1:   addEdge(s, cg.C1, zero),
			c1C2:  addEdge(cg.C1, cg.C2, zeroOne()),
			c2C4:  addEdge(cg.C2, cg.C4, zeroOne()),
			c1C3:  addEdge(cg.C1, cg.C3, zeroOne()),
			c3C4:  addEdge(cg.C3, cg.C4, zeroOne()),
			c4C5:  addEdge(cg.C4, cg.C5, zero),
			c4C6:  addEdge(cg.C4, cg.C6, zero),
			c4C7:  addEdge(cg.C4, cg.C7, zero),
			c5C8:  addEdge(cg.C5, cg.C8, zeroOne()),
			c6C9:  addEdge(cg.C6, cg.C9, zeroOne()),
			c7C10: addEdge(cg.C7, cg.C10, zeroOne()),
			c8T:   addEdge(cg.C8, t, zero),
			c9T:   addEdge(cg.C9, t, zero),
			c10T:  addEdge(cg.C10, t, zero),
		}
		// Pattern vertices: C5 checks (F,F,T) on the clause's literals,
		// C6 checks (F,T,F), C7 checks (T,F,F) - i.e. "only literal k/j/i
		// is true" - matching the paper's connection rule.
		patterns := [3][3]bool{
			{false, false, true},
			{false, true, false},
			{true, false, false},
		}
		targets := [3]int{cg.C5, cg.C6, cg.C7}
		for p := 0; p < 3; p++ {
			var lits [3]int
			for pos, want := range patterns[p] {
				lits[pos] = addEdge(litNode(c[pos], want), targets[p], zero)
			}
			switch p {
			case 0:
				ce.litC5 = lits
			case 1:
				ce.litC6 = lits
			case 2:
				ce.litC7 = lits
			}
		}
		r.Clauses = append(r.Clauses, cg)
		r.clauseEdges = append(r.clauseEdges, ce)
	}

	inst, err := core.NewInstance(g, fns)
	if err != nil {
		return nil, err
	}
	r.Inst = inst
	r.compiled = core.Compile(inst)
	return r, nil
}

// WitnessFlow assembles the intended flow for a satisfying 1-in-3
// assignment (the forward direction of Lemma 4.2): one unit per variable
// along its chosen branch, two units per clause down the C1 chains and on
// to the two pattern vertices whose exit arcs need zeroing.
func (r *Thm41) WitnessFlow(assign []bool) ([]int64, error) {
	if len(assign) != r.Formula.NumVars {
		return nil, fmt.Errorf("reduction: %d assignments for %d variables", len(assign), r.Formula.NumVars)
	}
	f := make([]int64, r.Inst.G.NumEdges())
	for i, ve := range r.varEdges {
		f[ve.sV1]++
		if assign[i] {
			f[ve.v1V2]++
			f[ve.v2V4]++
		} else {
			f[ve.v1V3]++
			f[ve.v3V4]++
		}
		f[ve.v4V5]++
		f[ve.v5V6]++
		f[ve.v6T]++
	}
	for j, c := range r.Formula.Clauses {
		ce := r.clauseEdges[j]
		f[ce.sC1] += 2
		f[ce.c1C2]++
		f[ce.c2C4]++
		f[ce.c1C3]++
		f[ce.c3C4]++
		// Exactly one pattern vertex starts at 0; the other two receive
		// one unit each to zero their exit arcs.
		patternIdx := -1
		switch {
		case c[0].Eval(assign) && !c[1].Eval(assign) && !c[2].Eval(assign):
			patternIdx = 2 // C7 checks (T,F,F)
		case !c[0].Eval(assign) && c[1].Eval(assign) && !c[2].Eval(assign):
			patternIdx = 1 // C6 checks (F,T,F)
		case !c[0].Eval(assign) && !c[1].Eval(assign) && c[2].Eval(assign):
			patternIdx = 0 // C5 checks (F,F,T)
		default:
			return nil, fmt.Errorf("reduction: clause %d does not have exactly one true literal", j)
		}
		routes := [3]struct{ conduit, exit, out int }{
			{ce.c4C5, ce.c5C8, ce.c8T},
			{ce.c4C6, ce.c6C9, ce.c9T},
			{ce.c4C7, ce.c7C10, ce.c10T},
		}
		for p, route := range routes {
			if p == patternIdx {
				continue
			}
			f[route.conduit]++
			f[route.exit]++
			f[route.out]++
		}
	}
	return f, nil
}

// Table2Row reports the event times of the pattern vertices C5, C6, C7 of
// clause j under the witness routing of the given (not necessarily
// satisfying) assignment with only variable units placed - exactly what
// Table 2 tabulates.  The clause's two units are routed down the C1
// chains so C4 finishes at 0, as in the paper's analysis.
func (r *Thm41) Table2Row(j int, assign []bool) ([3]int64, error) {
	if j < 0 || j >= len(r.Clauses) {
		return [3]int64{}, fmt.Errorf("reduction: clause %d of %d", j, len(r.Clauses))
	}
	f := make([]int64, r.Inst.G.NumEdges())
	for i, ve := range r.varEdges {
		f[ve.sV1]++
		if assign[i] {
			f[ve.v1V2]++
			f[ve.v2V4]++
		} else {
			f[ve.v1V3]++
			f[ve.v3V4]++
		}
		f[ve.v4V5]++
		f[ve.v5V6]++
		f[ve.v6T]++
	}
	for _, ce := range r.clauseEdges {
		f[ce.sC1] += 2
		f[ce.c1C2]++
		f[ce.c2C4]++
		f[ce.c1C3]++
		f[ce.c3C4]++
		// Park the units on the first two conduits; conduits are free and
		// this does not touch pattern-vertex start times.
		f[ce.c4C5]++
		f[ce.c5C8]++
		f[ce.c8T]++
		f[ce.c4C6]++
		f[ce.c6C9]++
		f[ce.c9T]++
	}
	d, err := r.Inst.Durations(f)
	if err != nil {
		return [3]int64{}, err
	}
	times := make([]int64, r.Inst.G.NumNodes())
	r.compiled.LongestPath(d, times)
	cg := r.Clauses[j]
	return [3]int64{times[cg.C5], times[cg.C6], times[cg.C7]}, nil
}
