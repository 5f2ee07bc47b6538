package core

import (
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/duration"
	"repro/internal/flow"
)

// pathInstance builds s -> m -> t with the given duration functions.
func pathInstance(f1, f2 duration.Func) *Instance {
	g := dag.New()
	s := g.AddNode("s")
	m := g.AddNode("m")
	t := g.AddNode("t")
	g.AddEdge(s, m)
	g.AddEdge(m, t)
	return MustInstance(g, []duration.Func{f1, f2})
}

func TestNewInstanceValidation(t *testing.T) {
	g := dag.New()
	s := g.AddNode("s")
	tt := g.AddNode("t")
	g.AddEdge(s, tt)
	if _, err := NewInstance(g, nil); err == nil {
		t.Fatal("want error for missing duration functions")
	}
	if _, err := NewInstance(g, []duration.Func{nil}); err == nil {
		t.Fatal("want error for nil duration function")
	}
	if _, err := NewInstance(g, []duration.Func{duration.Constant(1)}); err != nil {
		t.Fatal(err)
	}
}

func TestMakespanAndDurations(t *testing.T) {
	inst := pathInstance(
		duration.MustStep(duration.Tuple{R: 0, T: 5}, duration.Tuple{R: 2, T: 1}),
		duration.Constant(3),
	)
	c := Compile(inst)
	if got := c.ZeroFlowMakespan(); got != 8 {
		t.Fatalf("ZeroFlowMakespan = %d; want 8", got)
	}
	m, err := c.Makespan([]int64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if m != 4 {
		t.Fatalf("Makespan = %d; want 4", m)
	}
	if lb := c.MinMakespan; lb != 4 {
		t.Fatalf("MinMakespan = %d; want 4", lb)
	}
	if _, err := c.Makespan([]int64{1}); err == nil {
		t.Fatal("want error for wrong flow length")
	}
}

func TestValidateFlowAndSolution(t *testing.T) {
	inst := pathInstance(duration.Constant(1), duration.Constant(1))
	if err := inst.ValidateFlow([]int64{2, 2}, 2); err != nil {
		t.Fatal(err)
	}
	if err := inst.ValidateFlow([]int64{2, 2}, 1); err == nil {
		t.Fatal("want budget violation")
	}
	if err := inst.ValidateFlow([]int64{2, 1}, 5); err == nil {
		t.Fatal("want conservation violation")
	}
	sol, err := Compile(inst).NewSolution([]int64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value != 3 || sol.Makespan != 2 {
		t.Fatalf("solution = %+v", sol)
	}
	if inst.FlowValue([]int64{3, 3}) != 3 {
		t.Fatal("FlowValue mismatch")
	}
}

func TestMaxUsefulBudget(t *testing.T) {
	inst := pathInstance(
		duration.MustStep(duration.Tuple{R: 0, T: 5}, duration.Tuple{R: 2, T: 1}),
		duration.MustStep(duration.Tuple{R: 0, T: 5}, duration.Tuple{R: 3, T: 0}),
	)
	if got := inst.MaxUsefulBudget(); got != 5 {
		t.Fatalf("MaxUsefulBudget = %d; want 5", got)
	}
}

// raceDiamond is a small race DAG: s updates a twice and b once; a updates
// b twice; a and b each update t once.
func raceDiamond(t *testing.T) *VertexInstance {
	t.Helper()
	g := dag.New()
	s := g.AddNode("s")
	a := g.AddNode("a")
	b := g.AddNode("b")
	tt := g.AddNode("t")
	g.AddEdge(s, a)
	g.AddEdge(s, a)
	g.AddEdge(s, b)
	g.AddEdge(a, b)
	g.AddEdge(a, b)
	g.AddEdge(a, tt)
	g.AddEdge(b, tt)
	vi, err := NewRaceInstance(g, NoReducer)
	if err != nil {
		t.Fatal(err)
	}
	return vi
}

func TestVertexMakespan(t *testing.T) {
	vi := raceDiamond(t)
	// Works: s=0, a=2, b=3, t=2.  Longest path s->a->b->t = 0+2+3+2 = 7.
	m, err := vi.Makespan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m != 7 {
		t.Fatalf("Makespan = %d; want 7", m)
	}
	if vi.Work(2) != 3 {
		t.Fatalf("Work(b) = %d; want 3", vi.Work(2))
	}
}

func TestEarliestFinishSerializesArrivals(t *testing.T) {
	vi := raceDiamond(t)
	fin, err := vi.EarliestFinishTimes()
	if err != nil {
		t.Fatal(err)
	}
	// s done at 0; a receives 2 updates at time 0 -> done at 2.
	// b receives updates at times 0 (from s), 2, 2 (from a):
	// serialized: 1, then max(1,2)+1=3, then 4.
	// t receives updates at 2 (from a) and 4 (from b): 3, then 5.
	want := []int64{0, 2, 4, 5}
	for v := range want {
		if fin[v] != want[v] {
			t.Fatalf("finish[%d] = %d; want %d (all %v)", v, fin[v], want[v], fin)
		}
	}
	ef, err := vi.EarliestFinish()
	if err != nil {
		t.Fatal(err)
	}
	if ef != 5 {
		t.Fatalf("EarliestFinish = %d; want 5", ef)
	}
}

// TestObservation11 checks Observation 1.1 on random race DAGs: the true
// unbounded-processor execution time (EarliestFinish) never exceeds the
// DAG makespan.
func TestObservation11(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		vi := randomRaceDAG(t, rng)
		ef, err := vi.EarliestFinish()
		if err != nil {
			t.Fatal(err)
		}
		ms, err := vi.Makespan(nil)
		if err != nil {
			t.Fatal(err)
		}
		if ef > ms {
			t.Fatalf("trial %d: EarliestFinish %d > Makespan %d", trial, ef, ms)
		}
	}
}

func randomRaceDAG(t *testing.T, rng *rand.Rand) *VertexInstance {
	t.Helper()
	g := dag.New()
	s := g.AddNode("s")
	prev := []int{s}
	var all []int
	for l := 0; l < 3; l++ {
		width := 1 + rng.Intn(3)
		var layer []int
		for i := 0; i < width; i++ {
			v := g.AddNode("v")
			layer = append(layer, v)
			for k := 0; k <= rng.Intn(3); k++ {
				g.AddEdge(prev[rng.Intn(len(prev))], v)
			}
		}
		all = append(all, layer...)
		prev = layer
	}
	tt := g.AddNode("t")
	for _, v := range prev {
		g.AddEdge(v, tt)
	}
	// Hook dangling mid-layer sinks to t so validation passes.
	for _, v := range all {
		if g.OutDegree(v) == 0 {
			g.AddEdge(v, tt)
		}
	}
	vi, err := NewRaceInstance(g, NoReducer)
	if err != nil {
		t.Fatal(err)
	}
	return vi
}

func TestNewRaceInstanceKinds(t *testing.T) {
	g := dag.New()
	s := g.AddNode("s")
	v := g.AddNode("v")
	tt := g.AddNode("t")
	for i := 0; i < 100; i++ {
		g.AddEdge(s, v)
	}
	g.AddEdge(v, tt)
	bin, err := NewRaceInstance(g, BinaryReducer)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := bin.Fns[v].(*duration.RecursiveBinary); !ok {
		t.Fatalf("binary kind produced %T", bin.Fns[v])
	}
	kway, err := NewRaceInstance(g, KWayReducer)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := kway.Fns[v].(*duration.KWay); !ok {
		t.Fatalf("kway kind produced %T", kway.Fns[v])
	}
	if _, err := NewRaceInstance(g, ReducerKind(99)); err == nil {
		t.Fatal("want error for unknown kind")
	}
}

func TestToArcFormEquivalence(t *testing.T) {
	vi := raceDiamond(t)
	af, err := vi.ToArcForm()
	if err != nil {
		t.Fatal(err)
	}
	// Zero flow: arc-form makespan equals the vertex makespan.
	vm, _ := vi.Makespan(nil)
	ac := Compile(af.Inst)
	if am := ac.ZeroFlowMakespan(); am != vm {
		t.Fatalf("arc-form zero makespan %d != vertex makespan %d", am, vm)
	}
	// Push a real flow that allocates 2 units to vertex b's job arc and
	// check the equivalence under allocation.
	lower := make([]int64, af.Inst.G.NumEdges())
	lower[af.JobArc[2]] = 2
	res, err := flow.MinFlow(af.Inst.G, lower, af.Inst.Source, af.Inst.Sink)
	if err != nil {
		t.Fatal(err)
	}
	am, err := ac.Makespan(res.EdgeFlow)
	if err != nil {
		t.Fatal(err)
	}
	alloc := af.AllocFromFlow(res.EdgeFlow)
	vmAlloc, err := vi.Makespan(alloc)
	if err != nil {
		t.Fatal(err)
	}
	// The arc-form flow may allocate resources to arcs it merely passes
	// through, so its makespan is at most the alloc-based vertex makespan.
	if am > vmAlloc {
		t.Fatalf("arc makespan %d > vertex makespan %d", am, vmAlloc)
	}
}

func TestExpandStructure(t *testing.T) {
	inst := pathInstance(
		duration.MustStep(duration.Tuple{R: 0, T: 10}, duration.Tuple{R: 2, T: 6}, duration.Tuple{R: 5, T: 0}),
		duration.Constant(3),
	)
	ex, err := Expand(inst)
	if err != nil {
		t.Fatal(err)
	}
	if ex.CopiedArc[1] < 0 {
		t.Fatal("constant arc should be copied verbatim")
	}
	links := ex.Chains[0]
	if len(links) != 3 {
		t.Fatalf("3-tuple arc should expand to 3 chains, got %d", len(links))
	}
	if links[0].Delta != 2 || links[0].Time != 10 {
		t.Fatalf("chain 0 = %+v; want delta 2 time 10", links[0])
	}
	if links[1].Delta != 3 || links[1].Time != 6 {
		t.Fatalf("chain 1 = %+v; want delta 3 time 6", links[1])
	}
	if links[2].Delta != 0 || links[2].Time != 0 {
		t.Fatalf("chain 2 = %+v; want delta 0 time 0", links[2])
	}
	// Expanded instance still validates and has max 2 tuples per arc.
	for e, fn := range ex.Fns {
		if len(fn.Tuples()) > 2 {
			t.Fatalf("expanded arc %d has %d tuples", e, len(fn.Tuples()))
		}
	}
}

func TestExpandPullBackAndCanonical(t *testing.T) {
	inst := pathInstance(
		duration.MustStep(duration.Tuple{R: 0, T: 10}, duration.Tuple{R: 2, T: 6}, duration.Tuple{R: 5, T: 0}),
		duration.Constant(3),
	)
	ex, err := Expand(inst)
	if err != nil {
		t.Fatal(err)
	}
	// Route 2 units through chain 0 (zeroing it) and check bookkeeping.
	links := ex.Chains[0]
	lower := make([]int64, ex.G.NumEdges())
	lower[links[0].JobArc] = 2
	res, err := flow.MinFlow(ex.G, lower, ex.Source, ex.Sink)
	if err != nil {
		t.Fatal(err)
	}
	f := ex.PullBack(inst, res.EdgeFlow)
	if err := inst.ValidateFlow(f, -1); err != nil {
		t.Fatalf("pulled-back flow invalid: %v", err)
	}
	if inst.FlowValue(f) != res.Value {
		t.Fatalf("pulled-back value %d != expanded value %d", inst.FlowValue(f), res.Value)
	}
	if got := ex.CanonicalResource(inst, 0, res.EdgeFlow); got != 2 {
		t.Fatalf("CanonicalResource = %d; want 2", got)
	}
	if got := ex.RealizedDuration(inst, 0, res.EdgeFlow); got != 6 {
		t.Fatalf("RealizedDuration = %d; want 6 (chain 1 unzeroed)", got)
	}
	if got := ex.RealizedDuration(inst, 1, res.EdgeFlow); got != 3 {
		t.Fatalf("RealizedDuration(const) = %d; want 3", got)
	}
	if got := ex.CanonicalResource(inst, 1, res.EdgeFlow); got != 0 {
		t.Fatalf("CanonicalResource(const) = %d; want 0", got)
	}
}

// TestExpandRealizedAtLeastStep checks on random flows that the realized
// duration is never better than the step function at the summed flow
// (canonical redistribution can only help).
func TestExpandRealizedAtLeastStep(t *testing.T) {
	inst := pathInstance(
		duration.MustStep(duration.Tuple{R: 0, T: 10}, duration.Tuple{R: 2, T: 6}, duration.Tuple{R: 5, T: 0}),
		duration.MustStep(duration.Tuple{R: 0, T: 4}, duration.Tuple{R: 1, T: 2}),
	)
	ex, err := Expand(inst)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		lower := make([]int64, ex.G.NumEdges())
		for e := range lower {
			lower[e] = int64(rng.Intn(3))
		}
		res, err := flow.MinFlow(ex.G, lower, ex.Source, ex.Sink)
		if err != nil {
			t.Fatal(err)
		}
		f := ex.PullBack(inst, res.EdgeFlow)
		for e := 0; e < inst.G.NumEdges(); e++ {
			realized := ex.RealizedDuration(inst, e, res.EdgeFlow)
			if stepVal := inst.Fns[e].Eval(f[e]); realized < stepVal {
				t.Fatalf("trial %d arc %d: realized %d < step %d", trial, e, realized, stepVal)
			}
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	inst := pathInstance(
		duration.MustStep(duration.Tuple{R: 0, T: 10}, duration.Tuple{R: 2, T: 6}),
		duration.NewRecursiveBinary(64),
	)
	data, err := json.Marshal(inst)
	if err != nil {
		t.Fatal(err)
	}
	var back Instance
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.G.NumNodes() != 3 || back.G.NumEdges() != 2 {
		t.Fatalf("round trip shape: %d nodes %d edges", back.G.NumNodes(), back.G.NumEdges())
	}
	for e := 0; e < 2; e++ {
		for r := int64(0); r < 70; r++ {
			if inst.Fns[e].Eval(r) != back.Fns[e].Eval(r) {
				t.Fatalf("edge %d differs at r=%d", e, r)
			}
		}
	}
}

func TestJSONRejectsBadInput(t *testing.T) {
	var inst Instance
	if err := json.Unmarshal([]byte(`{"nodes":["a"],"edges":[{"from":0,"to":5,"fn":{"kind":"const"}}]}`), &inst); err == nil {
		t.Fatal("want error for dangling edge")
	}
	if err := json.Unmarshal([]byte(`{"nodes":["a","b"],"edges":[{"from":0,"to":1,"fn":{"kind":"nope"}}]}`), &inst); err == nil {
		t.Fatal("want error for unknown duration kind")
	}
	if err := json.Unmarshal([]byte(`{`), &inst); err == nil {
		t.Fatal("want error for syntax")
	}
}
