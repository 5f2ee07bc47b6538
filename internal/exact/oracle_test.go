package exact

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// The differential oracle for the exact search: small instances from this
// package's generators and from scenario's layered DAGs, solved at every
// parallelism and checked against the brute-force optima, which share
// nothing with the branch-and-bound's branching, pruning or scheduling.

// oracleMaxSpace bounds a draw's assignment space, which
// BruteForceAssignmentsMinMakespan enumerates.
const oracleMaxSpace = 1 << 16

// oracleMaxMultisets bounds the path multisets BruteForceMinResource
// enumerates on a target-mode draw; it caps the budgets the scan reaches.
const oracleMaxMultisets = 1 << 15

// oracleParallelism are the worker counts every draw is solved at.
var oracleParallelism = []int{1, 2, 4, 8}

// oracleKinds are the instance sources the draws cycle through: this
// package's randomInstance and tinyInstance, then scenario's layered DAGs
// with step, k-way and binary jobs.  The k-way and binary classes come up
// twice per cycle: at this size their searches are the largest, and the
// parallel runs shed work only on searches of some size.
var oracleKinds = []string{"package", "step", "kway", "binary", "kway", "binary"}

// oracleDraw is one differential case: an instance and the objective it is
// solved under (budget mode when target < 0).
type oracleDraw struct {
	name   string
	c      *core.Compiled
	budget int64
	target int64
}

// span draws uniformly from [lo, hi].
func span(rng *rand.Rand, lo, hi int64) int64 { return lo + rng.Int63n(hi-lo+1) }

// oracleInstance draws one small instance of the given kind.
func oracleInstance(rng *rand.Rand, kind string) (*core.Instance, string) {
	if kind == "package" {
		if rng.Intn(2) == 0 {
			return randomInstance(rng), "random"
		}
		return tinyInstance(rng), "tiny"
	}
	seed := rng.Int63n(1 << 30)
	g := scenario.NewGen(seed)
	layers, width, extra := int(span(rng, 1, 2)), int(span(rng, 2, 3)), int(span(rng, 0, 1))
	name := fmt.Sprintf("%s(%d,%d,%d)/%d", kind, layers, width, extra, seed)
	switch kind {
	case "step":
		return g.StepInstance(layers, width, extra, int(span(rng, 2, 6)), span(rng, 4, 100), span(rng, 1, 4)), name
	case "kway":
		return g.KWayInstance(layers, width, extra, span(rng, 4, 60)), name
	default:
		return g.BinaryInstance(layers, width, extra, span(rng, 4, 200)), name
	}
}

// drawOracle draws an instance of the given kind whose assignment space
// the brute force can enumerate, redrawing until one fits.  One draw in
// three is a target-mode draw, with a target from the all-fastest floor
// toward the zero-resource makespan; the others take a budget from 0
// toward MaxUsefulBudget.  The package's instances are small enough to
// range over all of both.  Scenario draws keep to spaces of at least
// 2^12 and to the tight end of each range, where their searches are
// largest: smaller or looser draws mostly close within a few nodes.
func drawOracle(rng *rand.Rand, kind string) oracleDraw {
	for {
		inst, name := oracleInstance(rng, kind)
		c := core.Compile(inst)
		layered := kind != "package"
		if c.AssignmentSpace > oracleMaxSpace || layered && c.AssignmentSpace < oracleMaxSpace>>4 {
			continue
		}
		d := oracleDraw{name: name, c: c, budget: -1, target: -1}
		if rng.Intn(3) == 0 {
			hi := c.ZeroFlowMakespan()
			if layered {
				hi = c.MinMakespan + (hi-c.MinMakespan)/3
			}
			d.target = span(rng, c.MinMakespan, hi)
			d.name += fmt.Sprintf(" target=%d", d.target)
		} else {
			lo, hi := int64(0), c.MaxUsefulBudget
			if layered {
				lo, hi = hi/8, hi/4
			}
			d.budget = span(rng, lo, hi)
			d.name += fmt.Sprintf(" budget=%d", d.budget)
		}
		return d
	}
}

// bruteBudgetCap is the largest budget up to max at which scanning the
// budgets from 0 over paths paths enumerates at most oracleMaxMultisets
// path multisets: the scan to budget b enumerates C(paths+b, b) of them.
func bruteBudgetCap(paths int, max int64) int64 {
	b, n := int64(0), 1.0
	for b < max {
		next := n * float64(int64(paths)+b+1) / float64(b+1)
		if next > oracleMaxMultisets {
			break
		}
		b, n = b+1, next
	}
	return b
}

// checkOracle solves d at each parallelism and fails t on any answer the
// brute-force optimum contradicts, on an invalid witness, or on an
// incomplete search.  It returns the nodes the search expanded at the
// first parallelism.
func checkOracle(t testing.TB, d oracleDraw, parallelism []int) int {
	t.Helper()
	inst := d.c.Inst
	nodes := -1
	if d.target < 0 {
		brute, ok := BruteForceAssignmentsMinMakespan(inst, d.budget, oracleMaxSpace)
		if !ok || brute.Makespan < 0 {
			t.Fatalf("%s: brute force found no optimum (ok=%v)", d.name, ok)
		}
		for _, par := range parallelism {
			sol, stats, err := MinMakespan(context.Background(), d.c, d.budget, &Options{Parallelism: par})
			if err != nil || !stats.Complete {
				t.Fatalf("%s p=%d: err %v, complete %v", d.name, par, err, stats.Complete)
			}
			if sol.Makespan != brute.Makespan {
				t.Fatalf("%s p=%d: makespan %d, brute force %d", d.name, par, sol.Makespan, brute.Makespan)
			}
			if err := inst.ValidateFlow(sol.Flow, d.budget); err != nil {
				t.Fatalf("%s p=%d: witness: %v", d.name, par, err)
			}
			if nodes < 0 {
				nodes = stats.Nodes
			}
		}
		return nodes
	}

	paths, _ := inst.G.Paths(inst.Source, inst.Sink, oracleMaxMultisets+1)
	maxBudget := bruteBudgetCap(len(paths), d.c.MaxUsefulBudget)
	brute, ok := BruteForceMinResource(inst, d.target, maxBudget, oracleMaxMultisets)
	if !ok {
		t.Fatalf("%s: brute force over %d paths refused", d.name, len(paths))
	}
	for _, par := range parallelism {
		sol, stats, err := MinResource(context.Background(), d.c, d.target, &Options{Parallelism: par})
		if err != nil || !stats.Complete {
			t.Fatalf("%s p=%d: err %v, complete %v", d.name, par, err, stats.Complete)
		}
		// The scan stops at maxBudget: without an answer there, the
		// optimum must lie beyond it.
		wrong := sol.Value != brute.Value
		if brute.Makespan < 0 {
			wrong = sol.Value <= maxBudget
		}
		if wrong {
			t.Fatalf("%s p=%d: resource %d, brute force %d (makespan %d, scanned to budget %d)",
				d.name, par, sol.Value, brute.Value, brute.Makespan, maxBudget)
		}
		if err := inst.ValidateFlow(sol.Flow, -1); err != nil || sol.Makespan > d.target {
			t.Fatalf("%s p=%d: witness makespan %d over target (flow error %v)", d.name, par, sol.Makespan, err)
		}
		if nodes < 0 {
			nodes = stats.Nodes
		}
	}
	return nodes
}

// TestExactParallelOracle is the seeded run of the differential oracle.
// It also requires that a quarter of the draws expand at least 64 nodes,
// so the parallel runs really queue, shed and take subtrees.
func TestExactParallelOracle(t *testing.T) {
	draws := 120
	if testing.Short() {
		draws = 48
	}
	rng := rand.New(rand.NewSource(20261019))
	big := 0
	for i := 0; i < draws; i++ {
		if checkOracle(t, drawOracle(rng, oracleKinds[i%len(oracleKinds)]), oracleParallelism) >= 64 {
			big++
		}
	}
	t.Logf("%d of %d draws expanded 64 or more nodes", big, draws)
	if 4*big < draws {
		t.Fatalf("only %d of %d draws expanded 64 or more nodes; want a quarter", big, draws)
	}
}

// FuzzExactParallelOracle runs the differential oracle on fuzzer-chosen
// draws: seed drives the draw and par picks a second worker count, 1 to 8,
// beside the sequential search.
func FuzzExactParallelOracle(f *testing.F) {
	for i := range oracleKinds {
		f.Add(int64(i+1), uint8(2*i+1))
	}
	f.Fuzz(func(t *testing.T, seed int64, par uint8) {
		rng := rand.New(rand.NewSource(seed))
		d := drawOracle(rng, oracleKinds[rng.Intn(len(oracleKinds))])
		checkOracle(t, d, []int{1, 1 + int(par)%8})
	})
}
