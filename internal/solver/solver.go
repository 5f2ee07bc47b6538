// Package solver defines the unified solve API over the algorithms of
// Das et al. (SPAA 2019): a Solver interface with declarative
// capabilities, functional options, a named registry, and a structured
// Report, so that commands, benchmarks and library callers dispatch
// through one surface instead of hand-rolled per-algorithm switches.
//
// The built-in solvers (registered at init) are:
//
//	exact               branch-and-bound optimum (budget and target modes)
//	bicriteria          (1/a, 1/(1-a)) bi-criteria LP rounding, Thm 3.4
//	bicriteria-resource its minimum-resource twin
//	kway5               5-approximation for k-way splitting, Thm 3.9
//	binary4             4-approximation for recursive binary, Thm 3.10
//	binarybi            (4/3, 14/5) bi-criteria for recursive binary, Thm 3.16
//	spdp                exact O(m B^2) DP on series-parallel DAGs, Sec 3.4
//	auto                portfolio: inspects the instance and routes to the
//	                    solver above whose guarantee applies
//
// All solvers accept a context.Context; the exact search and the LP
// relaxations poll it cooperatively, so long solves are interruptible and
// deadline-bounded (WithDeadline).  On interruption SolveCompiledOptions
// may return a non-nil partial Report together with the context error.
//
// WithParallelism sizes the exact search's worker pool (Caps.Parallel
// marks the solvers that honor it) and additionally arms auto's racing
// mode: on instances whose assignment space sits just past the exact
// threshold, auto runs exact and the bi-criteria rounding concurrently
// under one context, keeps the first complete result, and cancels the
// loser.
package solver

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/duration"
)

// Objective distinguishes the two optimization directions of the paper.
type Objective int

// Objectives.
const (
	// MinMakespan minimizes makespan under a resource budget.
	MinMakespan Objective = iota
	// MinResource minimizes resource usage under a makespan target.
	MinResource
)

// String names the objective for reports and wire forms.
func (o Objective) String() string {
	if o == MinResource {
		return "min-resource"
	}
	return "min-makespan"
}

// Caps declares what an individual solver supports, so dispatch errors
// surface before any work starts instead of as silent fallthroughs.
type Caps struct {
	// Budget: supports min-makespan mode (a resource budget).
	Budget bool
	// Target: supports min-resource mode (a makespan target).
	Target bool
	// Exact: the solution is optimal when the run completes.
	Exact bool
	// Approximate: the solver carries a proven multiplicative bound and
	// fills Report.LPLowerBound / Report.ApproxRatioUpperBound, so its
	// quality is checkable per solve (the corpus gate relies on this).
	Approximate bool
	// SeriesParallelOnly: requires a two-terminal series-parallel DAG.
	SeriesParallelOnly bool
	// Parallel: honors Options.Parallelism (a multicore search).  Asking
	// a non-parallel solver for parallelism is a capability error, not a
	// silent ignore.
	Parallel bool
	// Classes lists the duration-function kinds (duration.Kind*) whose
	// approximation guarantee the solver carries; nil means any
	// non-increasing step function.
	Classes []string
	// Guarantee describes the proven bound in human-readable form.
	Guarantee string
}

// Supports reports whether the solver handles the given objective.
func (c Caps) Supports(obj Objective) bool {
	if obj == MinResource {
		return c.Target
	}
	return c.Budget
}

// SupportsClass reports whether the solver's guarantee covers the given
// duration class kind.  Constant functions belong to every class.
func (c Caps) SupportsClass(kind string) bool {
	if c.Classes == nil || kind == duration.KindConst {
		return true
	}
	for _, k := range c.Classes {
		if k == kind {
			return true
		}
	}
	return false
}

// Options carries the resolved knobs of one solve call.  Build it with
// the With* functional options; the zero value is not valid (use
// NewOptions).
type Options struct {
	// Budget is the resource budget; >= 0 selects min-makespan mode.
	Budget int64
	// Target is the makespan target; >= 0 selects min-resource mode.
	Target int64
	// Alpha is the bi-criteria rounding parameter in (0,1).
	Alpha float64
	// MaxNodes caps the exact search; 0 uses the search's default.
	MaxNodes int
	// Parallelism sizes the worker pool of parallel solvers: 0 uses
	// GOMAXPROCS, 1 forces sequential search.  Explicit values of 2 or
	// more also arm auto's exact-vs-approximation racing.  Only solvers
	// whose Caps declare Parallel accept values above 1.
	Parallelism int
	// Deadline bounds the wall time; zero means none.
	// SolveCompiledOptions derives a context deadline from it.
	Deadline time.Time
	// Incumbent optionally seeds warm-startable solvers with a
	// known-feasible flow, typically a stored neighbor's solution: the
	// exact search starts with it as the incumbent and prunes from node
	// one, the Frank-Wolfe relaxation starts iterating from it.  It is a
	// HINT, not an input: solvers validate it (conservation, budget,
	// target) and silently ignore anything unusable, certificates are
	// always recomputed rather than inherited, and a complete solve's
	// optimal VALUE never depends on it.  Solvers without a warm-start
	// path ignore it entirely.
	Incumbent []int64
	// Progress, when non-nil, receives anytime-trajectory events from
	// solvers that support them: the exact search emits on every incumbent
	// improvement and the Frank-Wolfe relaxation on bound tightening, both
	// rate-limited by construction (improvements are monotone) so the
	// callback never sits on a per-node hot path.  It may be invoked from
	// solver worker goroutines concurrently with the solve; implementations
	// must be safe for concurrent use and must not block.  Purely
	// observational: results never depend on it.
	Progress ProgressFunc
}

// Objective returns the optimization direction the options select.
func (o Options) Objective() Objective {
	if o.Target >= 0 {
		return MinResource
	}
	return MinMakespan
}

// Option mutates Options; pass them to NewOptions.
type Option func(*Options)

// WithBudget selects min-makespan mode under a resource budget.
func WithBudget(b int64) Option { return func(o *Options) { o.Budget = b } }

// WithTarget selects min-resource mode under a makespan target.
func WithTarget(t int64) Option { return func(o *Options) { o.Target = t } }

// WithAlpha sets the bi-criteria rounding parameter (default 0.5).
func WithAlpha(a float64) Option { return func(o *Options) { o.Alpha = a } }

// WithMaxNodes caps the exact branch-and-bound search.
func WithMaxNodes(n int) Option { return func(o *Options) { o.MaxNodes = n } }

// WithParallelism sizes the branch-and-bound worker pool (0: GOMAXPROCS,
// 1: sequential) and lets auto race exact against the bi-criteria rounding
// when the instance sits near the exact-search threshold.
func WithParallelism(n int) Option { return func(o *Options) { o.Parallelism = n } }

// WithDeadline bounds the solve's wall time via a context deadline.
func WithDeadline(d time.Time) Option { return func(o *Options) { o.Deadline = d } }

// WithProgress subscribes fn to the solve's anytime trajectory (see
// Options.Progress).  fn may be called from solver goroutines and must be
// safe for concurrent use.
func WithProgress(fn ProgressFunc) Option { return func(o *Options) { o.Progress = fn } }

// ProgressEvent is one point of a solve's anytime trajectory: the best
// feasible objective found so far and the best certified lower bound, in
// the units of the active objective (makespan for min-makespan solves,
// resources for min-resource).  Incumbent is -1 until a first feasible
// solution exists; Bound is 0 until a first certificate exists.  Within
// one solve, Incumbent never increases and Bound never decreases across
// the delivered events, so the optimality gap shrinks monotonically.
type ProgressEvent struct {
	// Incumbent is the objective value of the best feasible solution found
	// so far, or -1 when none exists yet.
	Incumbent float64
	// Bound is the best certified lower bound on the optimum so far; 0
	// when no certificate exists yet.
	Bound float64
	// Nodes counts the search work done when the event was emitted
	// (branch-and-bound nodes, Frank-Wolfe iterations).
	Nodes int64
}

// ProgressFunc receives ProgressEvents during a solve.  Implementations
// must be safe for concurrent use and must return quickly: solvers invoke
// it inline (on improvement paths, never per node), so a blocking callback
// stalls the search.
type ProgressFunc func(ProgressEvent)

// NewOptions resolves functional options onto the defaults
// (no budget, no target, alpha 1/2, unlimited nodes, no deadline).
func NewOptions(opts ...Option) Options {
	o := Options{Budget: -1, Target: -1, Alpha: 0.5}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// Report is the structured outcome of one solve.
type Report struct {
	// Solver is the name of the solver that produced the solution.
	Solver string
	// Routing records a portfolio solver's dispatch decision; empty for
	// direct solves.
	Routing string
	// Objective is the optimization direction that was run.
	Objective Objective
	// Sol is the integral solution on the instance.
	Sol core.Solution
	// LowerBound bounds the optimum from below (LP optimum for the
	// approximation algorithms, the solution's own metric for complete
	// exact runs); 0 when no bound is available.
	LowerBound float64
	// LPLowerBound is the relaxation-certified lower bound on the optimum
	// (the LP optimum for the dense-LP solvers, the Frank-Wolfe
	// certificate for the scale tier); 0 for solvers that do not solve a
	// relaxation.  Unlike LowerBound it is never back-filled from the
	// solution itself, so it is the honest denominator for approximation
	// ratios.
	LPLowerBound float64
	// ApproxRatioUpperBound bounds the true approximation ratio of Sol
	// from above: the solution's objective metric divided by
	// LPLowerBound.  0 when no relaxation bound is available (then
	// nothing is claimed).  Values below 1 are legitimate for bi-criteria
	// solvers: the bound is relative to the stated budget while the
	// solution may spend up to B/(1-alpha), so it can beat the budget-B
	// optimum.
	ApproxRatioUpperBound float64
	// Guarantee is the proven approximation bound that applies.
	Guarantee string
	// Exact reports that the solution is optimal (requires Complete).
	Exact bool
	// Complete is false when the search was truncated by MaxNodes or by
	// context cancellation; the solution is then best-so-far.
	Complete bool
	// Nodes counts units of search work: branch-and-bound nodes expanded
	// for exact, Frank-Wolfe iterations for the scale tier, 0 for the
	// dense-LP solvers.
	Nodes int
	// Wall is the measured wall-clock solve time.
	Wall time.Duration
}

// String renders the report compactly for logs and CLI output.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: makespan %d, resources %d", r.Solver, r.Sol.Makespan, r.Sol.Value)
	if r.Exact && r.Complete {
		b.WriteString(" (optimal)")
	} else if r.LowerBound > 0 {
		fmt.Fprintf(&b, " (lower bound %.2f)", r.LowerBound)
	}
	if r.ApproxRatioUpperBound > 0 {
		fmt.Fprintf(&b, " (ratio <= %.3f)", r.ApproxRatioUpperBound)
	}
	if !r.Complete {
		b.WriteString(" [incomplete]")
	}
	if r.Routing != "" {
		fmt.Fprintf(&b, " via %s", r.Routing)
	}
	fmt.Fprintf(&b, " in %v", r.Wall)
	return b.String()
}

// Solver is one algorithm behind the unified API.  Every solver consumes
// the compiled-instance form (core.Compiled): the topological order,
// breakpoint tables, canonical hash, envelopes and recognition results
// are derived once per instance and shared across solvers instead of
// re-derived per solve.
type Solver interface {
	// Name is the registry key.
	Name() string
	// Capabilities declares the supported modes and duration classes.
	Capabilities() Caps
	// Solve runs the algorithm.  Implementations poll ctx cooperatively;
	// an interrupted run may return a non-nil partial Report (best
	// solution so far, Complete=false) together with ctx's error.
	Solve(ctx context.Context, c *core.Compiled, opts Options) (*Report, error)
}

// SolveCompiledOptions is the one solve entry point: it resolves name in
// the registry, validates the options against the solver's capabilities,
// applies the deadline, runs the solver on the compiled instance and
// stamps the wall time.  Compile once with core.Compile, then solve under
// as many solvers, budgets and targets as needed without repeating the
// preprocessing; options decoded from a wire form (WireOptions) or
// composed with NewOptions both arrive here.
func SolveCompiledOptions(ctx context.Context, name string, c *core.Compiled, o Options) (*Report, error) {
	s, err := Get(name)
	if err != nil {
		return nil, err
	}
	if err := ValidateOptions(s, o); err != nil {
		return nil, err
	}
	if !o.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, o.Deadline)
		defer cancel()
	}
	start := time.Now()
	// A context that is dead on arrival (a past deadline, or a parent that
	// was already canceled) must not burn a scheduling round-trip through
	// the solver: return the context error immediately, carrying a
	// lower-bound-only Report so the caller still learns something sound
	// about the optimum.
	if err := ctx.Err(); err != nil {
		rep := &Report{Solver: s.Name(), Objective: o.Objective(), LowerBound: cheapLowerBound(c, o)}
		rep.Wall = time.Since(start)
		return rep, err
	}
	rep, err := s.Solve(ctx, c, o)
	if rep != nil {
		rep.Wall = time.Since(start)
		if rep.Solver == "" {
			rep.Solver = s.Name()
		}
		// A class-restricted solver still runs on out-of-class instances
		// (the rounding pipeline is well-defined on any step function),
		// but its proven bound does not apply - say so in the Report
		// rather than advertising a guarantee that does not hold.
		if caps := s.Capabilities(); caps.Classes != nil {
			if class := c.Class(); !caps.SupportsClass(class) {
				rep.Guarantee = fmt.Sprintf("none: duration class %q is outside this solver's classes %v", class, caps.Classes)
			}
		}
	}
	return rep, err
}

// ValidateOptions rejects option/capability mismatches up front with an
// actionable error, without running anything.  Services use it to fail
// requests before they are queued.
func ValidateOptions(s Solver, o Options) error {
	caps := s.Capabilities()
	switch {
	case o.Budget >= 0 && o.Target >= 0:
		return fmt.Errorf("solver: exactly one of budget and target must be set (got budget %d and target %d)", o.Budget, o.Target)
	case o.Budget < 0 && o.Target < 0:
		return fmt.Errorf("solver: one of budget and target is required")
	}
	obj := o.Objective()
	if !caps.Supports(obj) {
		other := MinMakespan
		if obj == MinMakespan {
			other = MinResource
		}
		return fmt.Errorf("solver: %q does not support %v mode, only %v (solvers supporting %v: %s)",
			s.Name(), obj, other, obj, strings.Join(namesSupporting(obj), ", "))
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("solver: negative parallelism %d (0 means GOMAXPROCS, 1 sequential)", o.Parallelism)
	}
	if o.Parallelism > 1 && !caps.Parallel {
		return fmt.Errorf("solver: %q is single-threaded and ignores parallelism %d (parallel solvers: %s)",
			s.Name(), o.Parallelism, strings.Join(namesParallel(), ", "))
	}
	return nil
}

// namesParallel lists registered solvers that honor Options.Parallelism.
func namesParallel() []string {
	var names []string
	for _, s := range List() {
		if s.Capabilities().Parallel {
			names = append(names, s.Name())
		}
	}
	return names
}

// namesSupporting lists registered solvers that handle obj, for error
// messages.
func namesSupporting(obj Objective) []string {
	var names []string
	for _, s := range List() {
		if s.Capabilities().Supports(obj) {
			names = append(names, s.Name())
		}
	}
	return names
}
