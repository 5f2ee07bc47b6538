// Command rtcorpus runs the scenario corpus through the solving service
// and verifies solution quality: it is the engine of CI's corpus gate and
// of the nightly scaled quality run.
//
//	rtcorpus -init -dir testdata/scenarios          # materialize the default corpus + goldens
//	rtcorpus -dir testdata/scenarios -out report.json   # verify, emit the quality report
//	rtcorpus -dir testdata/scenarios -write             # re-record goldens after an intended change
//	rtcorpus -dir testdata/scenarios -scale 4 -out r.json  # nightly: 4x sizes, invariants only
//
// Every solve travels through an in-process rtserve (internal/service)
// over HTTP: the corpus therefore exercises JSON decoding, option
// validation, the solve pool and the result cache exactly as production
// traffic does, and each request is issued twice so the report records
// cache behavior (the repeat must be served from the cache).
//
// Verification, per corpus file:
//
//   - the spec must rebuild to its recorded canonical hash (determinism);
//   - each golden solver must reproduce makespan and resources exactly
//     (every registered solver is deterministic) with the recorded
//     optimality flag;
//   - an approximate solver's measured ratio must not exceed the recorded
//     ratio bound (quality gate);
//   - at -scale > 1 the instances differ from the goldens, so only the
//     soundness invariants are checked: certified bound <= metric, ratio
//     consistency, and cache hits on repeats.
//
// Exit status: 0 clean, 1 any verification failure, 2 usage errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/solver"
)

// SolveRecord is one solver's outcome on one scenario, as reported.
type SolveRecord struct {
	Solver       string  `json:"solver"`
	Makespan     int64   `json:"makespan"`
	Resources    int64   `json:"resources"`
	Exact        bool    `json:"exact,omitempty"`
	LPLowerBound float64 `json:"lp_lower_bound,omitempty"`
	Ratio        float64 `json:"ratio,omitempty"`
	RatioBound   float64 `json:"ratio_bound,omitempty"`
	Routing      string  `json:"routing,omitempty"`
	WallMS       float64 `json:"wall_ms"`
	CachedRepeat bool    `json:"cached_repeat"`
	OK           bool    `json:"ok"`
	Mismatch     string  `json:"mismatch,omitempty"`
}

// ScenarioRecord aggregates one scenario's solves.
type ScenarioRecord struct {
	Name   string        `json:"name"`
	Family string        `json:"family"`
	Hash   string        `json:"hash"`
	Nodes  int           `json:"nodes"`
	Arcs   int           `json:"arcs"`
	Solves []SolveRecord `json:"solves"`
}

// Report is the machine-readable quality report.
type Report struct {
	Scale     int64                 `json:"scale"`
	Scenarios []ScenarioRecord      `json:"scenarios"`
	Stats     service.StatsResponse `json:"service_stats"`
	Failures  int                   `json:"failures"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtcorpus: ")
	dir := flag.String("dir", "testdata/scenarios", "corpus directory")
	initCorpus := flag.Bool("init", false, "materialize the default corpus (specs + goldens) into -dir")
	write := flag.Bool("write", false, "re-solve existing corpus files and overwrite their goldens")
	scale := flag.Int64("scale", 1, "size multiplier; > 1 skips golden equality (nightly mode)")
	out := flag.String("out", "", "write the quality report JSON here (default stdout)")
	solversFlag := flag.String("solvers", "auto,frankwolfe", "solvers recorded per scenario at -init")
	flag.Parse()
	if *scale < 1 || (*initCorpus && *write) {
		flag.Usage()
		os.Exit(2)
	}

	srv, err := service.New(service.Config{MaxBodyBytes: 64 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	runner := &runner{base: ts.URL}

	switch {
	case *initCorpus:
		if err := runner.initCorpus(*dir, strings.Split(*solversFlag, ",")); err != nil {
			log.Fatal(err)
		}
		return
	case *write:
		if err := runner.rewrite(*dir); err != nil {
			log.Fatal(err)
		}
		return
	}

	rep, err := runner.verify(*dir, *scale, srv)
	if err != nil {
		log.Fatal(err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	for _, sc := range rep.Scenarios {
		for _, sv := range sc.Solves {
			status := "ok"
			if !sv.OK {
				status = "FAIL " + sv.Mismatch
			}
			log.Printf("%-24s %-12s makespan=%-8d resources=%-6d ratio=%.3f wall=%.1fms cached=%v %s",
				sc.Name, sv.Solver, sv.Makespan, sv.Resources, sv.Ratio, sv.WallMS, sv.CachedRepeat, status)
		}
	}
	if rep.Failures > 0 {
		log.Fatalf("%d verification failure(s)", rep.Failures)
	}
	log.Printf("corpus clean: %d scenarios, cache hits %d/%d lookups",
		len(rep.Scenarios), rep.Stats.Cache.Hits, rep.Stats.Cache.Hits+rep.Stats.Cache.Misses)
}

// runner sends solves through the in-process service.
type runner struct {
	base string
}

// solveOnce posts one request and decodes the response.
func (r *runner) solveOnce(req service.SolveRequest) (service.SolveResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return service.SolveResponse{}, err
	}
	resp, err := http.Post(r.base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return service.SolveResponse{}, err
	}
	defer resp.Body.Close()
	var sr service.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return service.SolveResponse{}, err
	}
	if sr.Error != "" {
		return sr, fmt.Errorf("service: %s", sr.Error)
	}
	if sr.Report == nil {
		return sr, fmt.Errorf("service: response without report")
	}
	return sr, nil
}

// solveTwice issues the identical request twice; the second response must
// come from the cache (or coalesce onto the first), which the record
// keeps.
func (r *runner) solveTwice(spec scenario.Spec, inst *core.Instance, name string) (SolveRecord, *solver.WireReport, error) {
	instJSON, err := json.Marshal(inst)
	if err != nil {
		return SolveRecord{}, nil, err
	}
	req := service.SolveRequest{Solver: name, Instance: instJSON}
	if spec.Budget != nil {
		req.Options.Budget = spec.Budget
	} else {
		req.Options.Target = spec.Target
	}
	first, err := r.solveOnce(req)
	if err != nil {
		return SolveRecord{}, nil, fmt.Errorf("%s/%s: %w", spec.Name, name, err)
	}
	repeat, err := r.solveOnce(req)
	if err != nil {
		return SolveRecord{}, nil, fmt.Errorf("%s/%s repeat: %w", spec.Name, name, err)
	}
	w := first.Report
	return SolveRecord{
		Solver:       name,
		Makespan:     w.Makespan,
		Resources:    w.Resources,
		Exact:        w.Exact,
		LPLowerBound: w.LPLowerBound,
		Ratio:        w.ApproxRatioUpperBound,
		Routing:      w.Routing,
		WallMS:       first.WallMS,
		CachedRepeat: repeat.Cached,
	}, w, nil
}

// loadEntries reads every corpus file in dir, sorted by name.
func loadEntries(dir string) ([]string, []scenario.CorpusEntry, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("no corpus files under %s (run rtcorpus -init)", dir)
	}
	sort.Strings(paths)
	entries := make([]scenario.CorpusEntry, len(paths))
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		if err := json.Unmarshal(data, &entries[i]); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return paths, entries, nil
}

// record solves the spec with each solver and produces the golden block.
func (r *runner) record(spec scenario.Spec, solvers []string) (scenario.CorpusEntry, error) {
	inst, err := spec.Build()
	if err != nil {
		return scenario.CorpusEntry{}, err
	}
	entry := scenario.CorpusEntry{
		Spec:  spec,
		Hash:  inst.CanonicalHash(),
		Nodes: inst.G.NumNodes(),
		Arcs:  inst.G.NumEdges(),
	}
	for _, name := range solvers {
		name = strings.TrimSpace(name)
		_, w, err := r.solveTwice(spec, inst, name)
		if err != nil {
			return scenario.CorpusEntry{}, err
		}
		g := scenario.Golden{
			Solver:       name,
			Makespan:     w.Makespan,
			Resources:    w.Resources,
			Exact:        w.Exact,
			LPLowerBound: w.LPLowerBound,
		}
		if w.ApproxRatioUpperBound > 0 {
			// One percent of headroom: quality regressions fail, float
			// jitter does not.
			g.RatioBound = w.ApproxRatioUpperBound * 1.01
		}
		entry.Golden = append(entry.Golden, g)
	}
	return entry, nil
}

func writeEntry(dir string, entry scenario.CorpusEntry) error {
	data, err := json.MarshalIndent(entry, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	path := filepath.Join(dir, entry.Spec.Name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s (%d arcs, %d golden solves)", path, entry.Arcs, len(entry.Golden))
	return nil
}

func (r *runner) initCorpus(dir string, solvers []string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, spec := range scenario.DefaultCorpus() {
		entry, err := r.record(spec, solvers)
		if err != nil {
			return err
		}
		if err := writeEntry(dir, entry); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) rewrite(dir string) error {
	_, entries, err := loadEntries(dir)
	if err != nil {
		return err
	}
	for _, old := range entries {
		solvers := make([]string, len(old.Golden))
		for i, g := range old.Golden {
			solvers[i] = g.Solver
		}
		entry, err := r.record(old.Spec, solvers)
		if err != nil {
			return err
		}
		if err := writeEntry(dir, entry); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) verify(dir string, scale int64, srv *service.Server) (*Report, error) {
	_, entries, err := loadEntries(dir)
	if err != nil {
		return nil, err
	}
	rep := &Report{Scale: scale}
	for _, entry := range entries {
		spec := entry.Spec.Scale(scale)
		inst, err := spec.Build()
		if err != nil {
			return nil, err
		}
		sc := ScenarioRecord{
			Name:   spec.Name,
			Family: spec.Family,
			Hash:   inst.CanonicalHash(),
			Nodes:  inst.G.NumNodes(),
			Arcs:   inst.G.NumEdges(),
		}
		hashOK := scale > 1 || sc.Hash == entry.Hash
		for _, g := range entry.Golden {
			rec, w, err := r.solveTwice(spec, inst, g.Solver)
			if err != nil {
				rec = SolveRecord{Solver: g.Solver, Mismatch: err.Error()}
				rep.Failures++
				sc.Solves = append(sc.Solves, rec)
				continue
			}
			rec.RatioBound = g.RatioBound
			rec.OK, rec.Mismatch = check(&rec, w, g, hashOK, scale, spec.Budget, spec.Target)
			if !rec.OK {
				rep.Failures++
			}
			sc.Solves = append(sc.Solves, rec)
		}
		if !hashOK && len(entry.Golden) == 0 {
			rep.Failures++
		}
		rep.Scenarios = append(rep.Scenarios, sc)
	}
	rep.Stats = srv.Stats()
	return rep, nil
}

// check applies the verification rules to one solve.
func check(rec *SolveRecord, w *solver.WireReport, g scenario.Golden, hashOK bool, scale int64, budget, target *int64) (bool, string) {
	var problems []string
	if !hashOK {
		problems = append(problems, "canonical hash drifted from the recorded golden")
	}
	if scale == 1 {
		if rec.Makespan != g.Makespan || rec.Resources != g.Resources {
			problems = append(problems, fmt.Sprintf("golden mismatch: got makespan=%d resources=%d, recorded %d/%d",
				rec.Makespan, rec.Resources, g.Makespan, g.Resources))
		}
		if rec.Exact != g.Exact {
			problems = append(problems, fmt.Sprintf("optimality drifted: exact=%v, recorded %v", rec.Exact, g.Exact))
		}
		if g.LPLowerBound > 0 && math.Abs(rec.LPLowerBound-g.LPLowerBound) > 1e-6*math.Max(1, g.LPLowerBound) {
			problems = append(problems, fmt.Sprintf("certified bound drifted: %.6f, recorded %.6f", rec.LPLowerBound, g.LPLowerBound))
		}
		if g.RatioBound > 0 && rec.Ratio > g.RatioBound+1e-9 {
			problems = append(problems, fmt.Sprintf("approximation ratio %.4f exceeds the recorded bound %.4f", rec.Ratio, g.RatioBound))
		}
	}
	// Soundness invariants, any scale.  Note the certified bound is
	// relative to the STATED budget: a bi-criteria solution may overspend
	// (up to B/(1-alpha)) and beat it, so "bound <= makespan" only
	// applies to budget-respecting solves, and ratios below 1 are
	// legitimate for overspenders.
	if w.Objective == "min-makespan" && budget != nil && rec.Resources <= *budget &&
		rec.LPLowerBound > float64(rec.Makespan)+1e-6 {
		problems = append(problems, fmt.Sprintf("certified bound %.4f exceeds the makespan %d of a budget-respecting solve",
			rec.LPLowerBound, rec.Makespan))
	}
	if target != nil {
		// Feasibility depends on the solver's contract: exact, spdp and
		// frankwolfe deliver makespan <= T, but bicriteria-resource only
		// guarantees makespan <= T/alpha (alpha is the 0.5 default here),
		// so holding it to T would fail contract-compliant solves.
		limit := *target
		if w.Solver == "bicriteria-resource" {
			limit = 2 * *target
		}
		if rec.Makespan > limit {
			problems = append(problems, fmt.Sprintf("makespan %d exceeds the %q target contract (limit %d for target %d)",
				rec.Makespan, w.Solver, limit, *target))
		}
	}
	if rec.Ratio > 0 && rec.LPLowerBound > 0 {
		metric := float64(rec.Makespan)
		if w.Objective == "min-resource" {
			metric = float64(rec.Resources)
		}
		if metric > 0 && math.Abs(rec.Ratio*rec.LPLowerBound-metric) > 1e-6*math.Max(1, metric) {
			problems = append(problems, fmt.Sprintf("ratio %.4f inconsistent with metric %.0f / bound %.4f",
				rec.Ratio, metric, rec.LPLowerBound))
		}
	}
	if !rec.CachedRepeat {
		problems = append(problems, "identical repeat request was not served from the cache")
	}
	if len(problems) == 0 {
		return true, ""
	}
	return false, strings.Join(problems, "; ")
}
