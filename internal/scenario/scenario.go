// Package scenario grows internal/gen into a catalog of named,
// parameterized workload families: every benchmark, corpus file, fuzz
// seed and property test in this repository draws instances from the same
// eight families, so "as many scenarios as you can imagine" is a set of
// JSON specs instead of hand-rolled generator calls scattered across
// tests.
//
// A Spec is the serializable identity of one instance: family name, seed
// and integer parameters.  Building a spec is deterministic - the same
// spec yields byte-identical canonical encodings (core.CanonicalHash) on
// every machine - which is what lets testdata/scenarios/ commit golden
// solve results and lets CI re-derive and verify them.
//
// The families:
//
//	layered      layered random DAG, random step functions
//	forkjoin     fork-join stages with a chosen duration class
//	randomsp     random two-terminal series-parallel instance
//	pipeline     parallel lanes with stage crosslinks (software pipeline)
//	diamondmesh  grid of diamonds (wavefront/stencil dependence)
//	matmul       the Figure 3 parallel matrix-multiply race DAG
//	racetrace    random update trace reduced to its race DAG D(P)
//	adversarial  near-threshold step functions hostile to LP rounding
package scenario

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/core"
)

// Params carries a family's integer knobs by name.
type Params map[string]int64

// get reads a parameter, falling back to the family default.
func (p Params) get(name string, def Params) int64 {
	if v, ok := p[name]; ok {
		return v
	}
	return def[name]
}

// Spec is the serializable identity of one scenario instance plus the
// objective it is solved under (exactly one of Budget and Target set).
type Spec struct {
	// Name labels the scenario in corpus files and reports.
	Name string `json:"name"`
	// Family selects the generator; see Families.
	Family string `json:"family"`
	// Seed drives every random choice; same spec, same instance.
	Seed int64 `json:"seed"`
	// Params overrides the family's default parameters.
	Params Params `json:"params,omitempty"`
	// Budget selects min-makespan mode (nil means unset).
	Budget *int64 `json:"budget,omitempty"`
	// Target selects min-resource mode (nil means unset).
	Target *int64 `json:"target,omitempty"`
}

// Family describes one workload generator.
type Family struct {
	// Name is the registry key.
	Name string
	// Desc is a one-line description for catalogs and -list output.
	Desc string
	// Defaults holds every recognized parameter with its default value.
	Defaults Params
	// SizeParams lists the parameters that Scale multiplies to grow the
	// instance (the nightly corpus runs scaled sizes).
	SizeParams []string

	build func(g *Gen, p Params, def Params) (*core.Instance, error)
}

var families = map[string]Family{}

func register(f Family) {
	if _, dup := families[f.Name]; dup {
		panic("scenario: duplicate family " + f.Name)
	}
	families[f.Name] = f
}

// Families lists every registered family sorted by name.
func Families() []Family {
	out := make([]Family, 0, len(families))
	for _, f := range families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Validate checks the spec names a known family, uses only recognized
// parameters, and sets exactly one objective.  The error for an invalid
// spec is deterministic: parameters are checked in sorted order, so two
// runs over the same bad spec report the same first offender.
//
//rt:deterministic
func (s Spec) Validate() error {
	f, ok := families[s.Family]
	if !ok {
		names := make([]string, 0, len(families))
		for _, fam := range Families() {
			names = append(names, fam.Name)
		}
		return fmt.Errorf("scenario: unknown family %q (have %v)", s.Family, names)
	}
	params := make([]string, 0, len(s.Params))
	for name := range s.Params {
		params = append(params, name)
	}
	sort.Strings(params)
	for _, name := range params {
		if _, ok := f.Defaults[name]; !ok {
			return fmt.Errorf("scenario: family %q has no parameter %q", s.Family, name)
		}
		if v := s.Params[name]; v <= 0 {
			return fmt.Errorf("scenario: parameter %q = %d must be positive", name, v)
		}
	}
	if (s.Budget == nil) == (s.Target == nil) {
		return fmt.Errorf("scenario: %q must set exactly one of budget and target", s.Name)
	}
	return nil
}

// Build deterministically materializes the spec's instance.
func (s Spec) Build() (*core.Instance, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	f := families[s.Family]
	inst, err := f.build(NewGen(s.Seed), s.Params, f.Defaults)
	if err != nil {
		return nil, fmt.Errorf("scenario: building %q: %w", s.Name, err)
	}
	return inst, nil
}

// Scale returns a copy of the spec with every size parameter multiplied
// by factor (the nightly corpus runs factor 2 and up).  The budget or
// target scales along: a bigger instance has a proportionally bigger
// makespan floor and useful budget, so a frozen objective would go
// unreachable (targets) or trivial (budgets).  Non-size parameters are
// preserved; the name records the factor.
//
//rt:deterministic — the scaled spec feeds Build and the corpus goldens; the map-to-map parameter copy below is order-insensitive by shape.
func (s Spec) Scale(factor int64) Spec {
	if factor <= 1 {
		return s
	}
	f, ok := families[s.Family]
	if !ok {
		return s
	}
	scaled := s
	scaled.Name = fmt.Sprintf("%s@x%d", s.Name, factor)
	scaled.Params = Params{}
	for k, v := range s.Params {
		scaled.Params[k] = v
	}
	for _, k := range f.SizeParams {
		scaled.Params[k] = s.Params.get(k, f.Defaults) * factor
	}
	if s.Budget != nil {
		scaled.Budget = i64(*s.Budget * factor)
	}
	if s.Target != nil {
		scaled.Target = i64(*s.Target * factor)
	}
	return scaled
}

// MarshalIndent renders the spec as stable, human-diffable JSON.
func (s Spec) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
