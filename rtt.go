// Package rtt is a Go implementation of the discrete resource-time
// tradeoff problem with resource reuse over paths, reproducing
//
//	Das, Tsai, Duppala, Lynch, Arkin, Chowdhury, Mitchell, Skiena.
//	"Data Races and the Discrete Resource-time Tradeoff Problem with
//	Resource Reuse over Paths."  SPAA 2019.
//
// An instance is a single-source single-sink DAG whose arcs carry jobs
// with non-increasing duration functions; a solution routes integral
// resource units along source-to-sink paths (each unit serves every arc
// it traverses - "reuse over paths"), and the makespan is the longest
// path under the resulting durations.
//
// # The Solver API
//
// All algorithms sit behind one registry of named solvers.  The usual
// entry point is Solve:
//
//	rep, err := rtt.Solve(ctx, "auto", inst, rtt.WithBudget(8))
//
// which dispatches by name ("exact", "bicriteria", "bicriteria-resource",
// "kway5", "binary4", "binarybi", "spdp", or the portfolio "auto" that
// inspects the instance and routes to the solver whose guarantee
// applies), runs it under ctx - the exact search and the LP relaxations
// poll the context, so WithDeadline bounds the solve - and returns a
// structured Report (solution, lower bound, guarantee, node count, wall
// time, and auto's routing decision).  GetSolver and Solvers expose the
// registry directly; RegisterSolver accepts custom implementations.
//
// The paper's content behind the solvers:
//
//   - the three duration-function classes of Section 2 (general step,
//     k-way splitting, recursive binary splitting), with structural
//     class detection (ClassifyDurations);
//   - the Section 3 approximation algorithms (bi-criteria LP rounding,
//     the 5-approximation for k-way splitting, the 4-approximation and
//     the improved (4/3, 14/5) bi-criteria for recursive binary);
//   - the Section 3.4 exact pseudo-polynomial dynamic program for
//     series-parallel DAGs, with recognition;
//   - an exact branch-and-bound optimizer for small general instances;
//   - the race-DAG machinery of Section 1: traces, reducers, a
//     discrete-event simulator, and vertex-form instances;
//   - the Section 4 / Appendix A hardness constructions (via
//     internal/reduction, exercised by the benchmark harness).
package rtt

import (
	"context"

	"repro/internal/core"
	"repro/internal/duration"
	"repro/internal/racesim"
	"repro/internal/solver"
	"repro/internal/sp"
)

// Unified solver API types.
type (
	// Solver is one algorithm behind the unified solve API.
	Solver = solver.Solver
	// SolverCaps declares a solver's supported modes and classes.
	SolverCaps = solver.Caps
	// SolveOptions is the resolved option set of one solve call.
	SolveOptions = solver.Options
	// SolveOption is a functional option for Solve.
	SolveOption = solver.Option
	// Report is the structured outcome of one solve.
	Report = solver.Report
	// Objective distinguishes min-makespan from min-resource mode.
	Objective = solver.Objective
)

// Optimization directions.
const (
	// MinMakespan minimizes makespan under a resource budget.
	MinMakespan = solver.MinMakespan
	// MinResource minimizes resource usage under a makespan target.
	MinResource = solver.MinResource
)

// Compiled is the immutable preprocessed form of an Instance: CSR
// adjacency, topological order, canonical hash, breakpoint tables, convex
// envelopes, combinatorial bounds, and lazily derived recognition
// results, shared by every solver.  Compile once, solve many.
type Compiled = core.Compiled

// Compile derives the compiled form of a validated instance.
var Compile = core.Compile

// Solve resolves a solver by name, validates options against its
// capabilities and runs it under the context.  It compiles the instance
// first; callers solving the same instance repeatedly should Compile once
// and use SolveCompiled.
func Solve(ctx context.Context, name string, inst *Instance, opts ...SolveOption) (*Report, error) {
	return SolveCompiled(ctx, name, core.Compile(inst), opts...)
}

// SolveCompiled is Solve on an already-compiled instance.
func SolveCompiled(ctx context.Context, name string, c *Compiled, opts ...SolveOption) (*Report, error) {
	return solver.SolveCompiledOptions(ctx, name, c, solver.NewOptions(opts...))
}

// Solver registry.
var (
	// RegisterSolver adds a custom solver to the registry.
	RegisterSolver = solver.Register
	// GetSolver resolves a registered solver by name.
	GetSolver = solver.Get
	// Solvers lists all registered solvers sorted by name.
	Solvers = solver.List
	// SolverNames lists the registered solver names.
	SolverNames = solver.Names
	// NewSolveOptions resolves functional options onto the defaults; use
	// it when calling a Solver's Solve method directly (the zero-value
	// SolveOptions is not valid).
	NewSolveOptions = solver.NewOptions
	// ErrNotSeriesParallel is returned by the spdp solver on general DAGs.
	ErrNotSeriesParallel = solver.ErrNotSeriesParallel
)

// Functional options for Solve.
var (
	// WithBudget selects min-makespan mode under a resource budget.
	WithBudget = solver.WithBudget
	// WithTarget selects min-resource mode under a makespan target.
	WithTarget = solver.WithTarget
	// WithAlpha sets the bi-criteria rounding parameter (default 0.5).
	WithAlpha = solver.WithAlpha
	// WithMaxNodes caps the exact branch-and-bound search.
	WithMaxNodes = solver.WithMaxNodes
	// WithParallelism sizes the exact search's worker pool (0: GOMAXPROCS,
	// 1: sequential) and arms auto's exact-vs-rounding racing.
	WithParallelism = solver.WithParallelism
	// WithDeadline bounds the solve's wall time via a context deadline.
	WithDeadline = solver.WithDeadline
)

// ClassifyDurations detects the duration class covering every function
// ("binary", "kway" or "step"); the auto solver uses it for dispatch.
var ClassifyDurations = duration.Classify

// Core model types.
type (
	// Instance is an activity-on-arc problem instance.
	Instance = core.Instance
	// VertexInstance is a jobs-on-vertices (race DAG) instance.
	VertexInstance = core.VertexInstance
	// Solution is a validated flow with its value and makespan.
	Solution = core.Solution
	// DurationFunc maps resources to job duration (non-increasing).
	DurationFunc = duration.Func
	// Tuple is a resource-time breakpoint.
	Tuple = duration.Tuple
	// SPTree is a series-parallel decomposition tree.
	SPTree = sp.Tree
	// SPTables holds solved series-parallel DP tables.
	SPTables = sp.Tables
	// Trace is a program's update trace for the race simulator.
	Trace = racesim.Trace
	// Update is one atomic update in a trace.
	Update = racesim.Update
	// SimResult is a simulated execution outcome.
	SimResult = racesim.SimResult
)

// Reducer kinds for race instances.
const (
	NoReducer     = core.NoReducer
	BinaryReducer = core.BinaryReducer
	KWayReducer   = core.KWayReducer
)

// Duration-function constructors.
var (
	// NewStep builds a general non-increasing step function (Equation 1).
	NewStep = duration.NewStep
	// NewKWay builds the k-way splitting function (Equation 2).
	NewKWay = duration.NewKWay
	// NewRecursiveBinary builds the recursive binary splitting function
	// (Equation 3).
	NewRecursiveBinary = duration.NewRecursiveBinary
)

// Constant returns a duration function that ignores resources.
func Constant(t int64) DurationFunc { return duration.Constant(t) }

// NewInstance validates and builds an activity-on-arc instance; see
// dag.Graph for graph construction (re-exported via NewGraph).
var NewInstance = core.NewInstance

// NewVertexInstance builds a jobs-on-vertices instance.
var NewVertexInstance = core.NewVertexInstance

// NewRaceInstance derives the space-time tradeoff instance of Question
// 1.3 from a race DAG, with the chosen reducer class at every vertex.
var NewRaceInstance = core.NewRaceInstance

// The approximation and exact algorithms have no facade functions of
// their own: dispatch through Solve with the solver names "bicriteria",
// "bicriteria-resource", "kway5", "binary4", "binarybi" and "exact" - the
// registry validates capabilities, honors the context, and returns a
// structured Report.

// Series-parallel machinery (Section 3.4).
var (
	// SPLeaf, SPSeries and SPParallel build decomposition trees.
	SPLeaf     = sp.Leaf
	SPSeries   = sp.Series
	SPParallel = sp.Parallel
)

// SPSolve runs the O(m B^2) series-parallel dynamic program up to budget.
func SPSolve(t *SPTree, budget int64) (*SPTables, error) {
	return sp.Solve(context.Background(), t, budget)
}

// SPRecognize extracts a decomposition tree from an instance when its DAG
// is two-terminal series-parallel.
func SPRecognize(inst *Instance) (*SPTree, bool) {
	t, _, ok := sp.Recognize(core.Compile(inst))
	return t, ok
}

// Race simulation (Section 1).
var (
	// Simulate runs a trace on the unit-cost update machine.
	Simulate = racesim.Simulate
	// ParallelMM builds the Figure 3 matrix-multiply trace.
	ParallelMM = racesim.ParallelMM
	// SingleCell builds n updates to one shared cell (Figure 2).
	SingleCell = racesim.SingleCell
	// WithBinaryReducer and WithKWaySplit attach reducers to a cell.
	WithBinaryReducer = racesim.WithBinaryReducer
	WithKWaySplit     = racesim.WithKWaySplit
	// SupernodeBinary applies the Figure 5 supernode transformation.
	SupernodeBinary = racesim.SupernodeBinary
	// RaceOutcomes enumerates the Figure 1 interleavings.
	RaceOutcomes = racesim.RaceOutcomes
	// Figure4 and Figure5 rebuild the paper's running example.
	Figure4 = racesim.Figure4
	Figure5 = racesim.Figure5
)

// Binary reducer variants.
const (
	SelfParent = racesim.SelfParent
	FullTree   = racesim.FullTree
)
