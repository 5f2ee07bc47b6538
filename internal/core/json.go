package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/dag"
	"repro/internal/duration"
	"repro/internal/jsonscan"
)

// edgeJSON is the wire form of one arc.
type edgeJSON struct {
	From int           `json:"from"`
	To   int           `json:"to"`
	Fn   duration.Spec `json:"fn"`
}

// instanceJSON is the wire form of an Instance.
type instanceJSON struct {
	Nodes []string   `json:"nodes"`
	Edges []edgeJSON `json:"edges"`
}

// MarshalJSON encodes the instance as {nodes, edges} with per-edge duration
// specs.
func (inst *Instance) MarshalJSON() ([]byte, error) {
	ij := instanceJSON{Nodes: make([]string, inst.G.NumNodes())}
	for v := range ij.Nodes {
		ij.Nodes[v] = inst.G.Name(v)
	}
	for e := 0; e < inst.G.NumEdges(); e++ {
		ed := inst.G.Edge(e)
		ij.Edges = append(ij.Edges, edgeJSON{
			From: ed.From,
			To:   ed.To,
			Fn:   duration.ToSpec(inst.Fns[e]),
		})
	}
	return json.Marshal(ij)
}

// UnmarshalJSON decodes and validates an instance.  Every structural
// defect is reported as an error rather than deferred to a later panic:
// dangling edge endpoints, self-loops, cycles, multiple sources or sinks,
// unreachable nodes (all via dag.Validate through NewInstance), empty
// graphs, and unknown or malformed duration specs.  Duplicate (parallel)
// arcs are NOT defects: the model is a multigraph, and the Section 3.1
// two-tuple expansion produces parallel arcs routinely.  On error *inst is
// left unmodified; on success the decoded instance re-marshals to an
// equivalent document (same topology, names and canonical duration
// tuples), so decode/encode round trips are stable.
//
// The document is scanned once, without reflection (internal/jsonscan),
// and data may be passed directly: like json.Unmarshal, it accepts white
// space around the instance and nothing else.  It accepts exactly the
// documents json.Unmarshal accepts into the {nodes, edges} wire form and
// decodes them to the same wire values.
func (inst *Instance) UnmarshalJSON(data []byte) error {
	var ij instanceJSON
	if err := ij.scan(jsonscan.New(data)); err != nil {
		return fmt.Errorf("core: invalid instance JSON: %w", err)
	}
	built, err := ij.instance()
	if err != nil {
		return err
	}
	*inst = *built
	return nil
}

// scan decodes a document into ij as json.Unmarshal does, a repeated key
// included.
func (ij *instanceJSON) scan(s *jsonscan.Scanner) error {
	for more := s.Object(); more; more = s.Member() {
		switch {
		case s.Is("nodes"):
			jsonscan.Slice(s, &ij.Nodes, s.String)
		case s.Is("edges"):
			jsonscan.Slice(s, &ij.Edges, func(e *edgeJSON) { e.scan(s) })
		default:
			s.Skip()
		}
	}
	return s.End()
}

func (e *edgeJSON) scan(s *jsonscan.Scanner) {
	for more := s.Object(); more; more = s.Member() {
		switch {
		case s.Is("from"):
			s.Int(&e.From)
		case s.Is("to"):
			s.Int(&e.To)
		case s.Is("fn"):
			scanSpec(s, &e.Fn)
		default:
			s.Skip()
		}
	}
}

func scanSpec(s *jsonscan.Scanner, fn *duration.Spec) {
	for more := s.Object(); more; more = s.Member() {
		switch {
		case s.Is("kind"):
			s.String(&fn.Kind)
		case s.Is("t0"):
			s.Int64(&fn.T0)
		case s.Is("tuples"):
			jsonscan.Slice(s, &fn.Tuples, func(tp *duration.Tuple) { scanTuple(s, tp) })
		default:
			s.Skip()
		}
	}
}

func scanTuple(s *jsonscan.Scanner, tp *duration.Tuple) {
	for more := s.Object(); more; more = s.Member() {
		switch {
		case s.Is("r"):
			s.Int64(&tp.R)
		case s.Is("t"):
			s.Int64(&tp.T)
		default:
			s.Skip()
		}
	}
}

// instance validates the wire form into an Instance.
func (ij *instanceJSON) instance() (*Instance, error) {
	if len(ij.Nodes) == 0 {
		return nil, fmt.Errorf("core: instance has no nodes")
	}
	g := dag.New()
	for _, name := range ij.Nodes {
		g.AddNode(name)
	}
	fns := make([]duration.Func, 0, len(ij.Edges))
	for i, e := range ij.Edges {
		// Bounds-check before AddEdge: dag.AddEdge panics on out-of-range
		// endpoints, and wire input must never reach a panic path.
		if e.From < 0 || e.From >= len(ij.Nodes) || e.To < 0 || e.To >= len(ij.Nodes) {
			return nil, fmt.Errorf("core: edge %d (%d -> %d) references a missing node (have %d nodes)",
				i, e.From, e.To, len(ij.Nodes))
		}
		g.AddEdge(e.From, e.To)
		fn, err := duration.FromSpec(e.Fn)
		if err != nil {
			return nil, fmt.Errorf("core: edge %d: %w", i, err)
		}
		fns = append(fns, fn)
	}
	return NewInstance(g, fns)
}
