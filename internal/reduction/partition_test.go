package reduction

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
)

func TestBestBalanceAndPerfectPartition(t *testing.T) {
	if got := BestBalance([]int64{1, 2, 3}); got != 3 {
		t.Fatalf("BestBalance(1,2,3) = %d; want 3", got)
	}
	if got := BestBalance([]int64{5, 1, 1}); got != 5 {
		t.Fatalf("BestBalance(5,1,1) = %d; want 5", got)
	}
	if !HasPerfectPartition([]int64{1, 2, 3}) {
		t.Fatal("1,2,3 should partition perfectly")
	}
	if HasPerfectPartition([]int64{1, 2, 4}) {
		t.Fatal("1,2,4 cannot partition perfectly")
	}
}

func TestBuildPartitionValidation(t *testing.T) {
	if _, err := BuildPartition(nil); err == nil {
		t.Fatal("want error for no items")
	}
	if _, err := BuildPartition([]int64{1, 0}); err == nil {
		t.Fatal("want error for non-positive item")
	}
}

func TestPartitionWitness(t *testing.T) {
	items := []int64{1, 2, 3}
	p, err := BuildPartition(items)
	if err != nil {
		t.Fatal(err)
	}
	// Put items {3} against {1,2}: both rails sum 3 = B/2.
	flow, err := p.WitnessFlow([]bool{false, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Inst.ValidateFlow(flow, p.Budget); err != nil {
		t.Fatalf("witness invalid: %v", err)
	}
	m, err := core.Compile(p.Inst).Makespan(flow)
	if err != nil {
		t.Fatal(err)
	}
	if m != p.Target {
		t.Fatalf("witness makespan = %d; want %d", m, p.Target)
	}
	if _, err := p.WitnessFlow([]bool{true}); err == nil {
		t.Fatal("want error for wrong choice length")
	}
}

// TestPartitionExactEqualsBestBalance is the machine verification of
// Section 4.3: the exact minimum makespan under budget B equals the best
// balanced-partition value; in particular it is B/2 iff a perfect
// partition exists.
func TestPartitionExactEqualsBestBalance(t *testing.T) {
	cases := [][]int64{
		{1, 2, 3},
		{1, 2, 4},
		{2, 2, 2},
		{3, 1, 1, 1},
		{5, 4, 3, 2},
	}
	for _, items := range cases {
		p, err := BuildPartition(items)
		if err != nil {
			t.Fatal(err)
		}
		sol, stats, err := exact.MinMakespan(context.Background(), core.Compile(p.Inst), p.Budget, &exact.Options{MaxNodes: 1 << 21})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Complete {
			t.Skipf("items %v: incomplete after %d nodes", items, stats.Nodes)
		}
		want := BestBalance(items)
		if sol.Makespan != want {
			t.Fatalf("items %v: exact = %d; best balance = %d", items, sol.Makespan, want)
		}
	}
}

func TestPartitionRandomAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 5; trial++ {
		items := make([]int64, 3)
		for i := range items {
			items[i] = 1 + rng.Int63n(4)
		}
		p, err := BuildPartition(items)
		if err != nil {
			t.Fatal(err)
		}
		sol, stats, err := exact.MinMakespan(context.Background(), core.Compile(p.Inst), p.Budget, &exact.Options{MaxNodes: 1 << 21})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Complete {
			continue
		}
		if want := BestBalance(items); sol.Makespan != want {
			t.Fatalf("items %v: exact = %d; want %d", items, sol.Makespan, want)
		}
	}
}

// TestPartitionTreeDecomposition validates the Figure 16 decomposition:
// correct on the construction's graph with width <= 15 regardless of n.
func TestPartitionTreeDecomposition(t *testing.T) {
	for _, n := range []int{1, 3, 8, 20} {
		items := make([]int64, n)
		for i := range items {
			items[i] = int64(i + 1)
		}
		p, err := BuildPartition(items)
		if err != nil {
			t.Fatal(err)
		}
		td := p.Decomposition()
		if err := td.Validate(p.Inst.G); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if w := td.Width(); w > 15 {
			t.Fatalf("n=%d: width %d exceeds the paper's bound of 15", n, w)
		}
	}
}

func TestTreeDecompositionValidatorCatchesErrors(t *testing.T) {
	p, err := BuildPartition([]int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	td := p.Decomposition()

	bad := &TreeDecomposition{Bags: td.Bags[:1], Parent: td.Parent[:1]}
	if err := bad.Validate(p.Inst.G); err == nil {
		t.Fatal("want error for uncovered vertices")
	}
	// Disconnect a vertex's bags: give the second bag a bogus parent
	// chain by removing the shared globals from the middle.  Simpler:
	// corrupt parents so bags of s are disconnected.
	if len(td.Bags) == 2 {
		bad2 := &TreeDecomposition{
			Bags:   [][]int{td.Bags[0], {0}, td.Bags[1]},
			Parent: []int{-1, 0, 1},
		}
		// Vertex 0 (s) appears in bags 0, 1, 2 (still connected); vertex
		// v0 appears in bags 0 and 2 only: disconnected through bag 1.
		if err := bad2.Validate(p.Inst.G); err == nil {
			t.Fatal("want connectivity error")
		}
	}
	mismatch := &TreeDecomposition{Bags: td.Bags, Parent: td.Parent[:1]}
	if err := mismatch.Validate(p.Inst.G); err == nil {
		t.Fatal("want error for bag/parent mismatch")
	}
}
