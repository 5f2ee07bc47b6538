// Benchmarks regenerating every table and figure of the paper's
// evaluation-bearing content.  Each benchmark is named after the artifact
// it reproduces; ratio metrics are reported via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints both the performance of the implementation and the measured
// approximation quality next to the bounds the paper proves.  cmd/rtbench
// prints the same paper-vs-measured comparison as tables.
package rtt

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/racesim"
	"repro/internal/reduction"
	"repro/internal/scenario"
	"repro/internal/sp"
)

// BenchmarkFig1RaceOutcomes enumerates the Figure 1 interleavings.
func BenchmarkFig1RaceOutcomes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := racesim.RaceOutcomes(false); len(out) != 2 {
			b.Fatal("unexpected race outcomes")
		}
	}
}

// BenchmarkFig2Reducer simulates n = 1024 updates through self-parent
// binary reducers of increasing height; the reported metric time_units is
// the simulated completion time ceil(n/2^h) + h + 1.
func BenchmarkFig2Reducer(b *testing.B) {
	const n = 1024
	for h := 0; h <= 6; h++ {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			tr, err := racesim.WithBinaryReducer(racesim.SingleCell(n), 0, h, racesim.SelfParent)
			if err != nil {
				b.Fatal(err)
			}
			var finish int64
			for i := 0; i < b.N; i++ {
				res, err := racesim.Simulate(tr, 0)
				if err != nil {
					b.Fatal(err)
				}
				finish = res.FinishTime
			}
			b.ReportMetric(float64(finish), "time_units")
		})
	}
}

// BenchmarkFig3ParallelMM reproduces the Figure 3 tradeoff for a 32x32
// multiply: extra space n^2 2^h buys completion time ceil(n/2^h) + h + 1.
func BenchmarkFig3ParallelMM(b *testing.B) {
	const n = 32
	mm := racesim.ParallelMM(n)
	for h := 0; h <= 4; h++ {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			tr, extra, err := mm.WithReducersOnZ(h, racesim.SelfParent)
			if err != nil {
				b.Fatal(err)
			}
			var finish int64
			for i := 0; i < b.N; i++ {
				res, err := racesim.Simulate(tr, 0)
				if err != nil {
					b.Fatal(err)
				}
				finish = res.FinishTime
			}
			b.ReportMetric(float64(finish), "time_units")
			b.ReportMetric(float64(extra), "extra_space")
		})
	}
}

// BenchmarkFig4Fig5 rebuilds the running example: makespan 11, dropping
// to 10 with the height-1 supernode.
func BenchmarkFig4Fig5(b *testing.B) {
	var m4, m5 int64
	for i := 0; i < b.N; i++ {
		vi := racesim.Figure4()
		var err error
		m4, err = vi.Makespan(nil)
		if err != nil {
			b.Fatal(err)
		}
		v5, err := racesim.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		m5, err = v5.Makespan(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m4), "fig4_makespan")
	b.ReportMetric(float64(m5), "fig5_makespan")
}

// BenchmarkFig6Expansion measures the D -> D” two-tuple expansion on a
// random step instance (Figures 6 and 7).
func BenchmarkFig6Expansion(b *testing.B) {
	inst := scenario.NewGen(17).StepInstance(6, 5, 4, 4, 40, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Expand(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// table1Ratio runs an approximation algorithm against the exact optimum
// over a family of small random instances and reports the worst and mean
// makespan ratios (Table 1's approximation column, measured).
func table1Ratio(b *testing.B, kind string, run func(context.Context, *core.Compiled, int64) (*approx.Result, error)) {
	g := scenario.NewGen(99)
	type testCase struct {
		inst   *core.Instance
		budget int64
		opt    int64
	}
	var cases []testCase
	for len(cases) < 12 {
		var inst *core.Instance
		switch kind {
		case "step":
			inst = g.StepInstance(2, 2, 1, 3, 9, 3)
		case "kway":
			inst = g.KWayInstance(2, 2, 1, 30)
		case "binary":
			inst = g.BinaryInstance(2, 2, 1, 30)
		}
		budget := int64(len(cases)%5 + 1)
		sol, stats, err := exact.MinMakespan(context.Background(), core.Compile(inst), budget, nil)
		if err != nil || !stats.Complete || sol.Makespan == 0 {
			continue
		}
		cases = append(cases, testCase{inst, budget, sol.Makespan})
	}
	b.ResetTimer()
	worst, sum := 0.0, 0.0
	for i := 0; i < b.N; i++ {
		worst, sum = 0, 0
		for _, tc := range cases {
			res, err := run(context.Background(), core.Compile(tc.inst), tc.budget)
			if err != nil {
				b.Fatal(err)
			}
			ratio := float64(res.Sol.Makespan) / float64(tc.opt)
			if ratio > worst {
				worst = ratio
			}
			sum += ratio
		}
	}
	b.ReportMetric(worst, "worst_ratio")
	b.ReportMetric(sum/float64(len(cases)), "mean_ratio")
}

// BenchmarkTable1BiCriteria measures the Theorem 3.4 algorithm at
// alpha = 1/2 (proven makespan factor 1/alpha = 2, resources 2B).
func BenchmarkTable1BiCriteria(b *testing.B) {
	table1Ratio(b, "step", func(ctx context.Context, c *core.Compiled, budget int64) (*approx.Result, error) {
		return approx.BiCriteria(ctx, c, budget, 0.5)
	})
}

// BenchmarkTable1KWay5 measures the Theorem 3.9 5-approximation.
func BenchmarkTable1KWay5(b *testing.B) {
	table1Ratio(b, "kway", approx.KWay5)
}

// BenchmarkTable1Binary4 measures the Theorem 3.10 4-approximation.
func BenchmarkTable1Binary4(b *testing.B) {
	table1Ratio(b, "binary", approx.Binary4)
}

// BenchmarkTable1BinaryBiCriteria measures the Theorem 3.16 (4/3, 14/5)
// algorithm.
func BenchmarkTable1BinaryBiCriteria(b *testing.B) {
	table1Ratio(b, "binary", approx.BinaryBiCriteria)
}

// BenchmarkTable1HardnessGaps regenerates the hardness side of Table 1:
// the satisfiable Theorem 4.1 instance reaches makespan 1 while the
// unsatisfiable one cannot (factor-2 gap), and the Theorem 4.4 chain
// needs 2 vs 3 units (factor-3/2 gap).
func BenchmarkTable1HardnessGaps(b *testing.B) {
	sat, err := reduction.BuildThm41(reduction.Figure9Formula())
	if err != nil {
		b.Fatal(err)
	}
	gapSat, err := reduction.BuildResourceGap(reduction.Figure9Formula())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var mk, res int64
	for i := 0; i < b.N; i++ {
		sol, _, err := exact.MinMakespan(context.Background(), core.Compile(sat.Inst), sat.Budget, nil)
		if err != nil {
			b.Fatal(err)
		}
		mk = sol.Makespan
		rsol, _, err := exact.MinResource(context.Background(), core.Compile(gapSat.Inst), gapSat.Target, nil)
		if err != nil {
			b.Fatal(err)
		}
		res = rsol.Value
	}
	b.ReportMetric(float64(mk), "sat_makespan")
	b.ReportMetric(float64(res), "sat_min_resource")
}

// BenchmarkTable2 regenerates the Table 2 clause-gadget rows.
func BenchmarkTable2(b *testing.B) {
	f := reduction.Formula{NumVars: 3, Clauses: []reduction.Clause{
		{reduction.Pos(0), reduction.Pos(1), reduction.Pos(2)},
	}}
	r, err := reduction.BuildThm41(f)
	if err != nil {
		b.Fatal(err)
	}
	assign := []bool{false, false, true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Table2Row(0, assign); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates one Table 3 row (Section 4.2 gadgets under
// the exact machine semantics).
func BenchmarkTable3(b *testing.B) {
	f := reduction.Formula{NumVars: 3, Clauses: []reduction.Clause{
		{reduction.Pos(0), reduction.Pos(1), reduction.Pos(2)},
	}}
	c, err := reduction.BuildSec42(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := c.RoutedTrace([]bool{true, false, false}, []int{2})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := racesim.Simulate(tr, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSec34SPDP exercises the O(m B^2) series-parallel dynamic
// program across budget scales; time should grow quadratically with B.
func BenchmarkSec34SPDP(b *testing.B) {
	tree := scenario.NewGen(5).SPTree(64, 4, 50, 5)
	for _, budget := range []int64{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("B=%d", budget), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sp.Solve(context.Background(), tree, budget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig15Partition builds and exactly solves the Section 4.3
// bounded-treewidth instance; the metric is the optimal makespan, which
// equals the best balanced partition value.
func BenchmarkFig15Partition(b *testing.B) {
	items := []int64{3, 1, 4, 2}
	p, err := reduction.BuildPartition(items)
	if err != nil {
		b.Fatal(err)
	}
	var m int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, _, err := exact.MinMakespan(context.Background(), core.Compile(p.Inst), p.Budget, nil)
		if err != nil {
			b.Fatal(err)
		}
		m = sol.Makespan
	}
	b.ReportMetric(float64(m), "opt_makespan")
	b.ReportMetric(float64(reduction.BestBalance(items)), "best_balance")
}

// BenchmarkFig16TreeDecomposition validates the width-12 decomposition of
// a 64-item Partition instance.
func BenchmarkFig16TreeDecomposition(b *testing.B) {
	items := make([]int64, 64)
	for i := range items {
		items[i] = int64(i + 1)
	}
	p, err := reduction.BuildPartition(items)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		td := p.Decomposition()
		if err := td.Validate(p.Inst.G); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig17N3DM builds the Appendix A reduction and checks its
// witness flow.
func BenchmarkFig17N3DM(b *testing.B) {
	p := reduction.N3DM{A: []int64{1, 2, 3}, B: []int64{3, 2, 1}, C: []int64{2, 2, 2}}
	sigma, rho, ok := p.Solve()
	if !ok {
		b.Fatal("expected solvable")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := reduction.BuildN3DM(p)
		if err != nil {
			b.Fatal(err)
		}
		flow, err := r.WitnessFlow(sigma, rho)
		if err != nil {
			b.Fatal(err)
		}
		m, err := core.Compile(r.Inst).Makespan(flow)
		if err != nil {
			b.Fatal(err)
		}
		if m != r.Target {
			b.Fatalf("witness makespan %d != target %d", m, r.Target)
		}
	}
}

// BenchmarkAblationMinFlowVsSaturate contrasts the Section 3.1 min-flow
// re-routing with the naive alternative that saturates every requirement
// on its own path: the metric is the resource saved by reuse.
func BenchmarkAblationMinFlowVsSaturate(b *testing.B) {
	inst := scenario.NewGen(23).StepInstance(4, 3, 2, 2, 20, 4)
	var reuse, naive int64
	for i := 0; i < b.N; i++ {
		res, err := approx.BiCriteria(context.Background(), core.Compile(inst), 10, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		reuse = res.Sol.Value
		naive = 0
		for e := 0; e < inst.G.NumEdges(); e++ {
			naive += res.Sol.Flow[e] // without reuse every arc pays separately
		}
	}
	b.ReportMetric(float64(reuse), "with_reuse")
	b.ReportMetric(float64(naive), "without_reuse")
}

// BenchmarkExactSolver measures the branch-and-bound on a mid-size
// instance, reporting search nodes.
func BenchmarkExactSolver(b *testing.B) {
	inst := scenario.NewGen(31).StepInstance(3, 2, 1, 3, 9, 3)
	var nodes int
	for i := 0; i < b.N; i++ {
		_, stats, err := exact.MinMakespan(context.Background(), core.Compile(inst), 4, nil)
		if err != nil {
			b.Fatal(err)
		}
		nodes = stats.Nodes
	}
	b.ReportMetric(float64(nodes), "search_nodes")
}

// BenchmarkExactParallel measures branch-and-bound scaling across worker
// counts on a complete ~10k-node search (a layered k-way instance).  The
// optimum must be identical at every parallelism - the shared-incumbent
// design guarantees value determinism - so the subbenchmarks cross-check
// it while timing.  Expect near-linear speedup up to the physical core
// count and a plateau beyond it; on a single-core machine all settings
// time alike.
func BenchmarkExactParallel(b *testing.B) {
	inst := scenario.NewGen(13).KWayInstance(3, 4, 2, 80)
	const budget = 10
	want, stats, err := exact.MinMakespan(context.Background(), core.Compile(inst), budget, &exact.Options{Parallelism: 1})
	if err != nil || !stats.Complete {
		b.Fatalf("sequential reference failed: %v (complete=%v)", err, stats.Complete)
	}
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", par), func(b *testing.B) {
			var nodes int
			for i := 0; i < b.N; i++ {
				sol, stats, err := exact.MinMakespan(context.Background(), core.Compile(inst), budget, &exact.Options{Parallelism: par})
				if err != nil {
					b.Fatal(err)
				}
				if !stats.Complete {
					b.Fatal("search incomplete")
				}
				if sol.Makespan != want.Makespan {
					b.Fatalf("parallelism %d: makespan %d != sequential %d", par, sol.Makespan, want.Makespan)
				}
				nodes = stats.Nodes
			}
			b.ReportMetric(float64(nodes), "search_nodes")
		})
	}
}
