package flow

import (
	"testing"

	"repro/internal/dag"
)

// poolGraph builds s -> a -> t plus s -> t.
func poolGraph() (*dag.Graph, int, int) {
	g := dag.New()
	s := g.AddNode("s")
	a := g.AddNode("a")
	t := g.AddNode("t")
	g.AddEdge(s, a)
	g.AddEdge(a, t)
	g.AddEdge(s, t)
	return g, s, t
}

func TestSolverPoolReusesMatchingTopology(t *testing.T) {
	g1, s, tt := poolGraph()
	g2, _, _ := poolGraph() // same topology, distinct graph value
	p := NewSolverPool()

	ms1 := p.Get(g1, s, tt)
	r1, err := ms1.Solve([]int64{2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	v1 := r1.Value
	p.Put(ms1)

	ms2 := p.Get(g2, s, tt)
	if ms2 != ms1 {
		t.Fatal("pool did not reuse the topology-matched network")
	}
	r2, err := ms2.Solve([]int64{2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Value != v1 {
		t.Fatalf("reused network changed the answer: %d vs %d", r2.Value, v1)
	}
	// The reused solve must agree with a fresh solver on fresh state.
	fresh, err := NewMinFlowSolver(g2, s, tt).Solve([]int64{2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Value != fresh.Value {
		t.Fatalf("pooled %d != fresh %d", r2.Value, fresh.Value)
	}
	for e := range fresh.EdgeFlow {
		if r2.EdgeFlow[e] != fresh.EdgeFlow[e] {
			t.Fatalf("edge %d: pooled flow %d != fresh %d", e, r2.EdgeFlow[e], fresh.EdgeFlow[e])
		}
	}
	p.Put(ms2)

	// A different topology must not match.
	g3 := dag.New()
	s3 := g3.AddNode("s")
	t3 := g3.AddNode("t")
	g3.AddEdge(s3, t3)
	ms3 := p.Get(g3, s3, t3)
	if ms3 == ms1 {
		t.Fatal("pool reused a network across different topologies")
	}

	hits, misses, _ := p.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("stats: hits=%d misses=%d, want 1/2", hits, misses)
	}
}

func TestSolverPoolBounded(t *testing.T) {
	g, s, tt := poolGraph()
	p := NewSolverPool()
	held := make([]*MinFlowSolver, poolCap+1)
	for i := range held {
		held[i] = p.Get(g, s, tt)
	}
	for _, ms := range held {
		p.Put(ms) // the last one is over capacity: one eviction
	}
	if _, _, dropped := p.Stats(); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if len(p.free) != poolCap {
		t.Fatalf("pool holds %d networks, want %d", len(p.free), poolCap)
	}
}

// chainGraph builds s -> v1 -> ... -> vn -> t: one topology per n.
func chainGraph(n int) (*dag.Graph, int, int) {
	g := dag.New()
	s := g.AddNode("s")
	prev := s
	for i := 0; i < n; i++ {
		v := g.AddNode("v")
		g.AddEdge(prev, v)
		prev = v
	}
	t := g.AddNode("t")
	g.AddEdge(prev, t)
	return g, s, t
}

// TestSolverPoolLearnsNewTopology fills the pool with poolCap distinct
// topologies, then returns and requests a new one.  A full pool must
// keep the newcomer and evict the least recently returned network;
// otherwise a long-running process stops reusing networks for good once
// it has seen poolCap topologies.
func TestSolverPoolLearnsNewTopology(t *testing.T) {
	p := NewSolverPool()
	for n := 1; n <= poolCap; n++ {
		g, s, tt := chainGraph(n)
		p.Put(NewMinFlowSolver(g, s, tt))
	}
	g, s, tt := chainGraph(poolCap + 1)
	ms := p.Get(g, s, tt)
	p.Put(ms)
	if p.Get(g, s, tt) != ms {
		t.Fatal("a full pool did not keep the newest topology")
	}
	if hits, _, dropped := p.Stats(); hits != 1 || dropped != 1 {
		t.Fatalf("hits=%d dropped=%d, want 1/1", hits, dropped)
	}
	// The evicted network is the first one returned.
	g1, s1, t1 := chainGraph(1)
	p.Get(g1, s1, t1)
	if hits, _, _ := p.Stats(); hits != 1 {
		t.Fatal("the least recently returned network was not the one evicted")
	}
}

func TestNilPoolStillWorks(t *testing.T) {
	g, s, tt := poolGraph()
	var p *SolverPool
	ms := p.Get(g, s, tt)
	if _, err := ms.Solve([]int64{1, 1, 0}); err != nil {
		t.Fatal(err)
	}
	p.Put(ms) // must not panic
}
