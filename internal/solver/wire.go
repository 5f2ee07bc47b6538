package solver

// This file holds the wire forms of the solver API: JSON-decodable
// options, registry introspection records, and a JSON-encodable Report.
// They are the vocabulary of cmd/rtserve's HTTP endpoints, kept here so
// any transport (HTTP today, a queue consumer tomorrow) decodes options
// and encodes reports identically.

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/core"
)

// WireOptions is the JSON wire form of the solve options.  Pointer fields
// distinguish "absent" from zero: a budget of 0 is a meaningful request
// (no resources at all), so it must not collapse into "no budget".
type WireOptions struct {
	// Budget selects min-makespan mode under a resource budget.
	Budget *int64 `json:"budget,omitempty"`
	// Target selects min-resource mode under a makespan target.
	Target *int64 `json:"target,omitempty"`
	// Alpha is the bi-criteria rounding parameter in (0,1); absent means
	// the 0.5 default.
	Alpha *float64 `json:"alpha,omitempty"`
	// MaxNodes caps the exact search; 0 uses the search's default.
	MaxNodes int `json:"max_nodes,omitempty"`
	// Parallelism sizes the worker pool of parallel solvers.
	Parallelism int `json:"parallelism,omitempty"`
	// DeadlineMS bounds the solve wall time, in milliseconds from the
	// moment the request is resolved; 0 means no deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// MaxWireParallelism caps the parallelism a wire request may ask for.
// The exact search starts that many workers, each a goroutine with
// arc-sized scratch and its own min-flow network, so an unchecked value
// lets one request exhaust memory.  The cap is far above the cores a
// search can use.
const MaxWireParallelism = 64

// maxWireDeadlineMS is the largest deadline_ms whose time.Duration does
// not overflow int64 nanoseconds (about 292 years); a larger value would
// wrap into a deadline that has already passed.
const maxWireDeadlineMS = math.MaxInt64 / int64(time.Millisecond)

// Resolve converts the wire form into resolved Options, anchoring the
// relative deadline at now.  Values that no solver could accept are
// rejected here; capability-dependent checks (mode support, parallelism)
// stay in ValidateOptions.
func (w WireOptions) Resolve(now time.Time) (Options, error) {
	o := NewOptions()
	if w.Budget != nil {
		if *w.Budget < 0 {
			return o, fmt.Errorf("solver: negative budget %d", *w.Budget)
		}
		o.Budget = *w.Budget
	}
	if w.Target != nil {
		if *w.Target < 0 {
			return o, fmt.Errorf("solver: negative target %d", *w.Target)
		}
		o.Target = *w.Target
	}
	if w.Alpha != nil {
		if !(*w.Alpha > 0 && *w.Alpha < 1) { // also rejects NaN
			return o, fmt.Errorf("solver: alpha %v outside (0,1)", *w.Alpha)
		}
		o.Alpha = *w.Alpha
	}
	if w.MaxNodes < 0 {
		return o, fmt.Errorf("solver: negative max_nodes %d", w.MaxNodes)
	}
	o.MaxNodes = w.MaxNodes
	if w.Parallelism > MaxWireParallelism {
		return o, fmt.Errorf("solver: parallelism %d exceeds the wire cap %d", w.Parallelism, MaxWireParallelism)
	}
	o.Parallelism = w.Parallelism
	if w.DeadlineMS < 0 {
		return o, fmt.Errorf("solver: negative deadline_ms %d", w.DeadlineMS)
	}
	if w.DeadlineMS > maxWireDeadlineMS {
		return o, fmt.Errorf("solver: deadline_ms %d overflows a duration (at most %d)", w.DeadlineMS, maxWireDeadlineMS)
	}
	if w.DeadlineMS > 0 {
		o.Deadline = now.Add(time.Duration(w.DeadlineMS) * time.Millisecond)
	}
	return o, nil
}

// cacheKeyExcluded lists the Options fields deliberately absent from
// CacheKey, with the reason each cannot affect a cacheable result.  The
// cachekey analyzer (and its runtime twin TestCacheKeyCoversOptions)
// enforces that every field is rendered by CacheKey or listed here, so a
// future option can never silently poison the result cache.
var cacheKeyExcluded = map[string]string{
	"Deadline":  "selects whether a result arrives in time, never what it is; interrupted results are not cached",
	"Incumbent": "warm-start hint; validated and certificate-recomputed, it can change wall time but never a complete result, and repeats stay byte-stable because the first-computed report is what every later hit returns",
	"Progress":  "observational callback; it receives the trajectory but never steers the search, so results never depend on it",
}

// CacheKey renders the result-relevant options canonically, for use in
// result-cache keys alongside the instance hash and solver name.  Fields
// left out are justified in cacheKeyExcluded.  Parallelism IS included:
// the optimum value is parallelism-independent, but the witness flow of a
// parallel search need not be, and a cache must return byte-identical
// reports.
func (o Options) CacheKey() string {
	var buf [64]byte
	return string(o.appendCacheKey(buf[:0]))
}

// appendCacheKey renders the key into dst.  The format is the historical
// fmt.Sprintf("b%d.t%d.a%g.n%d.p%d", ...) rendering byte for byte
// (strconv's 'g'/-1 float formatting is what %g uses), kept stable so
// persisted caches survive this function's allocation-free rewrite.
//
//rt:hotpath — runs per service request on the result-cache lookup path.
func (o Options) appendCacheKey(dst []byte) []byte {
	dst = append(dst, 'b')
	dst = strconv.AppendInt(dst, o.Budget, 10)
	dst = append(dst, ".t"...)
	dst = strconv.AppendInt(dst, o.Target, 10)
	dst = append(dst, ".a"...)
	dst = strconv.AppendFloat(dst, o.Alpha, 'g', -1, 64)
	dst = append(dst, ".n"...)
	dst = strconv.AppendInt(dst, int64(o.MaxNodes), 10)
	dst = append(dst, ".p"...)
	dst = strconv.AppendInt(dst, int64(o.Parallelism), 10)
	return dst
}

// ResultCacheKey is the full identity of one solve outcome: the solver
// name, the compiled instance's canonical hash, and the result-relevant
// options.  Keying on the precomputed canonical hash makes cache hits
// insensitive to node naming and arc order end-to-end - two isomorphic
// JSON encodings of the same DAG share one key - and costs nothing on a
// hot compiled instance, where the hash was computed exactly once.
func ResultCacheKey(name string, c *core.Compiled, o Options) string {
	return name + "|" + c.Hash() + "|" + o.CacheKey()
}

// Info is the JSON-encodable description of one registered solver: its
// name plus its declared capabilities, the registry introspection record
// behind rtserve's /v1/solvers.
type Info struct {
	Name               string   `json:"name"`
	Budget             bool     `json:"budget"`
	Target             bool     `json:"target"`
	Exact              bool     `json:"exact"`
	Approximate        bool     `json:"approximate,omitempty"`
	SeriesParallelOnly bool     `json:"series_parallel_only,omitempty"`
	Parallel           bool     `json:"parallel,omitempty"`
	Classes            []string `json:"classes,omitempty"`
	Guarantee          string   `json:"guarantee"`
}

// NewInfo captures a solver's name and capabilities.
func NewInfo(s Solver) Info {
	caps := s.Capabilities()
	return Info{
		Name:               s.Name(),
		Budget:             caps.Budget,
		Target:             caps.Target,
		Exact:              caps.Exact,
		Approximate:        caps.Approximate,
		SeriesParallelOnly: caps.SeriesParallelOnly,
		Parallel:           caps.Parallel,
		Classes:            caps.Classes,
		Guarantee:          caps.Guarantee,
	}
}

// Infos describes every registered solver, sorted by name.
func Infos() []Info {
	solvers := List()
	infos := make([]Info, len(solvers))
	for i, s := range solvers {
		infos[i] = NewInfo(s)
	}
	return infos
}

// WireReport is the JSON wire form of a Report.
type WireReport struct {
	Solver     string  `json:"solver"`
	Routing    string  `json:"routing,omitempty"`
	Objective  string  `json:"objective"`
	Makespan   int64   `json:"makespan"`
	Resources  int64   `json:"resources"`
	Flow       []int64 `json:"flow,omitempty"`
	LowerBound float64 `json:"lower_bound,omitempty"`
	// LPLowerBound and ApproxRatioUpperBound mirror the Report fields of
	// the same names: the relaxation-certified bound and the resulting
	// upper bound on the true approximation ratio (absent for exact
	// solvers).
	LPLowerBound          float64 `json:"lp_lower_bound,omitempty"`
	ApproxRatioUpperBound float64 `json:"approx_ratio_upper_bound,omitempty"`
	Guarantee             string  `json:"guarantee,omitempty"`
	Exact                 bool    `json:"exact"`
	Complete              bool    `json:"complete"`
	// Nodes counts units of search work (branch-and-bound nodes,
	// Frank-Wolfe iterations; 0 for the dense-LP solvers).
	Nodes int `json:"nodes,omitempty"`
	// WallMS is the wall time of the solve that produced this report; a
	// cache hit carries the original compute time, not the lookup time.
	WallMS float64 `json:"wall_ms"`
}

// Wire converts the report for JSON transport.
func (r *Report) Wire() WireReport {
	return WireReport{
		Solver:                r.Solver,
		Routing:               r.Routing,
		Objective:             r.Objective.String(),
		Makespan:              r.Sol.Makespan,
		Resources:             r.Sol.Value,
		Flow:                  r.Sol.Flow,
		LowerBound:            r.LowerBound,
		LPLowerBound:          r.LPLowerBound,
		ApproxRatioUpperBound: r.ApproxRatioUpperBound,
		Guarantee:             r.Guarantee,
		Exact:                 r.Exact,
		Complete:              r.Complete,
		Nodes:                 r.Nodes,
		WallMS:                float64(r.Wall) / float64(time.Millisecond),
	}
}
