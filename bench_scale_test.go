package rtt

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/relax"
	"repro/internal/scenario"
	"repro/internal/solver"
)

// BenchmarkScaleFrankWolfe solves a ~1.3k-arc general layered DAG through
// the registry's scale tier; the reported metrics expose solution quality
// next to the speed (ratio = makespan / certified bound).
func BenchmarkScaleFrankWolfe(b *testing.B) {
	budget := int64(40)
	spec := scenario.Spec{Name: "bench", Family: "layered", Seed: 42,
		Params: scenario.Params{"layers": 24, "width": 18, "extra": 12, "tuples": 4, "maxt0": 40, "maxr": 5},
		Budget: &budget}
	inst, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rep *solver.Report
	for i := 0; i < b.N; i++ {
		rep, err = Solve(context.Background(), "frankwolfe", inst, solver.WithBudget(budget))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Sol.Makespan), "makespan")
	b.ReportMetric(rep.ApproxRatioUpperBound, "ratio_bound")
}

// BenchmarkScaleFrankWolfe50k is the raw-speed tier's headline number: a
// 50k+-arc layered DAG solved through the scale tier in well under a
// second per solve, on one goroutine.  The instance is compiled once
// outside the timer - the compile-once-solve-many serving pattern -
// leaving the per-op cost the Frank-Wolfe solve itself.
func BenchmarkScaleFrankWolfe50k(b *testing.B) {
	budget := int64(500)
	spec := scenario.Spec{Name: "bench", Family: "layered", Seed: 1,
		Params: scenario.Params{"layers": 250, "width": 100, "extra": 100, "tuples": 3, "maxt0": 30, "maxr": 4},
		Budget: &budget}
	inst, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	if arcs := inst.G.NumEdges(); arcs < 50000 {
		b.Fatalf("instance has %d arcs; the headline benchmark wants >= 50k", arcs)
	}
	c := core.Compile(inst)
	c.Levels()
	b.ReportAllocs()
	b.ResetTimer()
	var rep *solver.Report
	for i := 0; i < b.N; i++ {
		rep, err = SolveCompiled(context.Background(), "frankwolfe", c, solver.WithBudget(budget))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(inst.G.NumEdges()), "arcs")
	b.ReportMetric(rep.ApproxRatioUpperBound, "ratio_bound")
}

// BenchmarkRelaxSolverReuse measures steady-state relaxation solves
// through one reused relax.Solver (the per-worker pattern): the scratch
// buffers make repeat solves allocation-light, which the allocs/op gate
// in CI watches.
func BenchmarkRelaxSolverReuse(b *testing.B) {
	budget := int64(12)
	spec := scenario.Spec{Name: "bench", Family: "diamondmesh", Seed: 7,
		Params: scenario.Params{"rows": 8, "cols": 8, "tuples": 3, "maxt0": 20, "maxr": 3},
		Budget: &budget}
	inst, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	s := relax.NewSolver(core.Compile(inst))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MinMakespan(context.Background(), budget, relax.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrankWolfeCapRegime solves fresh-sized layered DAGs (about 130
// arcs) whose duality gap does not close within the 2,400-iteration cap:
// the regime where the stall stop, not the tolerance, ends the solve.
// The instance is compiled once outside the timer; iters/op is the
// Frank-Wolfe iteration count of the solve.
func BenchmarkFrankWolfeCapRegime(b *testing.B) {
	for _, tc := range []struct {
		seed   int64
		budget int64
	}{{1, 27}, {6, 20}} {
		budget := tc.budget
		spec := scenario.Spec{Name: "bench", Family: "layered", Seed: tc.seed,
			Params: scenario.Params{"layers": 8, "width": 8, "extra": 6, "tuples": 8, "maxt0": 60, "maxr": 4},
			Budget: &budget}
		inst, err := spec.Build()
		if err != nil {
			b.Fatal(err)
		}
		c := core.Compile(inst)
		b.Run(fmt.Sprintf("seed=%d", tc.seed), func(b *testing.B) {
			s := relax.NewSolver(c)
			b.ReportAllocs()
			b.ResetTimer()
			var res *relax.Result
			for i := 0; i < b.N; i++ {
				if res, err = s.MinMakespan(context.Background(), budget, relax.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Iters), "iters/op")
			b.ReportMetric(float64(res.Sol.Makespan), "makespan")
			b.ReportMetric(res.LowerBound, "bound")
		})
	}
}

// BenchmarkScenarioBuild materializes every family at default parameters:
// the fixed cost each corpus verification and property-test draw pays.
func BenchmarkScenarioBuild(b *testing.B) {
	for _, f := range scenario.Families() {
		b.Run(f.Name, func(b *testing.B) {
			budget := int64(5)
			spec := scenario.Spec{Name: "bench", Family: f.Name, Seed: 11, Budget: &budget}
			b.ReportAllocs()
			var arcs int
			for i := 0; i < b.N; i++ {
				inst, err := spec.Build()
				if err != nil {
					b.Fatal(err)
				}
				arcs = inst.G.NumEdges()
			}
			b.ReportMetric(float64(arcs), "arcs")
		})
	}
}

// BenchmarkAutoRouteLarge exercises auto's size-based routing end to end
// on a DAG past the dense-LP cap: route decision plus frankwolfe solve.
func BenchmarkAutoRouteLarge(b *testing.B) {
	budget := int64(30)
	spec := scenario.Spec{Name: "bench", Family: "racetrace", Seed: 13,
		Params: scenario.Params{"cells": 150, "updates": 600, "maxsrcs": 3, "reducer": 1},
		Budget: &budget}
	inst, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Solve(context.Background(), "auto", inst, solver.WithBudget(budget))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && rep.Solver != "frankwolfe" {
			b.Fatalf("auto routed %d-arc instance to %s (%s); want frankwolfe", inst.G.NumEdges(), rep.Solver, rep.Routing)
		}
	}
}

// BenchmarkCompileOnceSolveMany contrasts the two ways to solve the same
// instance repeatedly: "fresh" compiles (and re-derives the recognition,
// class and envelope state) on every solve, "memoized" compiles once and
// reuses the lazily derived results.  The instance is series-parallel, so
// the auto route pays recognition - the costliest memoizable derivation -
// on every fresh solve and exactly once on the memoized path.
func BenchmarkCompileOnceSolveMany(b *testing.B) {
	budget := int64(6)
	spec := scenario.Spec{Name: "bench", Family: "randomsp", Seed: 21,
		Params: scenario.Params{"leaves": 192, "tuples": 4, "maxt0": 30, "maxr": 4},
		Budget: &budget}
	inst, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	check := func(b *testing.B, rep *solver.Report, err error) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Solver != "spdp" {
			b.Fatalf("routed to %s; want spdp on a series-parallel instance", rep.Solver)
		}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := Solve(context.Background(), "auto", inst, solver.WithBudget(budget))
			check(b, rep, err)
		}
	})
	b.Run("memoized", func(b *testing.B) {
		c := core.Compile(inst)
		rep, err := SolveCompiled(context.Background(), "auto", c, solver.WithBudget(budget))
		check(b, rep, err)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := SolveCompiled(context.Background(), "auto", c, solver.WithBudget(budget))
			check(b, rep, err)
		}
	})
}

// BenchmarkCanonicalHash measures the cache-identity hash on a mid-size
// instance with the reusable encoding buffer.
func BenchmarkCanonicalHash(b *testing.B) {
	budget := int64(5)
	spec := scenario.Spec{Name: "bench", Family: "layered", Seed: 3,
		Params: scenario.Params{"layers": 12, "width": 10, "extra": 6, "tuples": 4, "maxt0": 30, "maxr": 4},
		Budget: &budget}
	inst, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("arcs=%d", inst.G.NumEdges()), func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = inst.AppendCanonical(buf[:0])
		}
		_ = buf
	})
}
