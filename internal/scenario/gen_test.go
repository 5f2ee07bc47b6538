package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/duration"
	"repro/internal/sp"
)

func TestLayeredValidates(t *testing.T) {
	g := NewGen(1)
	for trial := 0; trial < 20; trial++ {
		d := g.Layered(3, 3, 2)
		if _, _, err := d.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := NewGen(7).StepInstance(3, 3, 2, 3, 10, 3)
	b := NewGen(7).StepInstance(3, 3, 2, 3, 10, 3)
	if a.G.NumEdges() != b.G.NumEdges() {
		t.Fatal("same seed produced different shapes")
	}
	for e := 0; e < a.G.NumEdges(); e++ {
		if a.Fns[e].String() != b.Fns[e].String() {
			t.Fatalf("edge %d: %s != %s", e, a.Fns[e], b.Fns[e])
		}
	}
}

func TestStepFuncValid(t *testing.T) {
	g := NewGen(3)
	for i := 0; i < 100; i++ {
		fn := g.StepFunc(4, 20, 4)
		tuples := fn.Tuples()
		if tuples[0].R != 0 {
			t.Fatal("first tuple must be at R=0")
		}
		for j := 1; j < len(tuples); j++ {
			if tuples[j].R <= tuples[j-1].R || tuples[j].T >= tuples[j-1].T {
				t.Fatalf("tuples not canonical: %v", tuples)
			}
		}
	}
}

func TestKindInstances(t *testing.T) {
	g := NewGen(5)
	k := g.KWayInstance(2, 2, 1, 30)
	for _, fn := range k.Fns {
		if _, ok := fn.(*duration.KWay); !ok {
			t.Fatalf("got %T", fn)
		}
	}
	b := g.BinaryInstance(2, 2, 1, 30)
	for _, fn := range b.Fns {
		if _, ok := fn.(*duration.RecursiveBinary); !ok {
			t.Fatalf("got %T", fn)
		}
	}
}

func TestSPTree(t *testing.T) {
	g := NewGen(9)
	tr := g.SPTree(8, 3, 10, 3)
	if tr.Leaves() != 8 {
		t.Fatalf("leaves = %d; want 8", tr.Leaves())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	inst, _, err := tr.ToInstance()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := sp.Recognize(core.Compile(inst)); !ok {
		t.Fatal("generated SP instance not recognized as SP")
	}
}

func TestRequestStream(t *testing.T) {
	const n, distinct = 200, 10
	reqs := NewGen(21).RequestStream(n, distinct)
	if len(reqs) != n {
		t.Fatalf("len = %d; want %d", len(reqs), n)
	}
	seen := make(map[*core.Instance]int)
	budgets, targets := 0, 0
	for i, req := range reqs {
		if (req.Budget >= 0) == (req.Target >= 0) {
			t.Fatalf("request %d: exactly one objective required (budget %d, target %d)",
				i, req.Budget, req.Target)
		}
		if req.Budget >= 0 {
			budgets++
		} else {
			targets++
			if req.Target < core.Compile(req.Inst).MinMakespan {
				t.Fatalf("request %d: target %d below the reachability bound", i, req.Target)
			}
		}
		if _, _, err := req.Inst.G.Validate(); err != nil {
			t.Fatalf("request %d: invalid instance: %v", i, err)
		}
		seen[req.Inst]++
	}
	if len(seen) > distinct {
		t.Fatalf("stream used %d distinct instances; want at most %d", len(seen), distinct)
	}
	// The stream must repeat instances: that repetition is what result
	// caching feeds on.
	if len(seen) >= n {
		t.Fatal("stream never repeated an instance")
	}
	if budgets == 0 || targets == 0 {
		t.Fatalf("stream must mix objectives (budgets %d, targets %d)", budgets, targets)
	}

	// Same seed, same stream.
	again := NewGen(21).RequestStream(n, distinct)
	for i := range reqs {
		if reqs[i].Budget != again[i].Budget || reqs[i].Target != again[i].Target ||
			reqs[i].Inst.CanonicalHash() != again[i].Inst.CanonicalHash() {
			t.Fatalf("request %d differs across identically-seeded generators", i)
		}
	}
}

func TestForkJoin(t *testing.T) {
	g := NewGen(11)
	for _, kind := range []string{duration.KindKWay, duration.KindBinary, duration.KindStep} {
		inst := g.ForkJoin(3, 4, kind, 20)
		if _, _, err := inst.G.Validate(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if inst.G.NumEdges() != 3*4*2 {
			t.Fatalf("%s: edges = %d", kind, inst.G.NumEdges())
		}
	}
}
