// Command benchdiff records Go benchmark output as a JSON baseline and
// compares later runs against it, failing on aggregate regressions.  It is
// the core of CI's benchmark-regression gate.
//
//	go test -bench . -benchmem -benchtime=3x -count=3 -run='^$' ./... > bench.txt
//	benchdiff -record -in bench.txt -out BENCH_baseline.json
//	benchdiff -baseline BENCH_baseline.json -new bench_new.json -threshold 1.30 -alloc-threshold 1.15
//	benchdiff -scaling bench_new.json
//
// Recording parses `ns/op` (and, when present, `allocs/op`) lines, strips
// the -GOMAXPROCS suffix, and keeps the MINIMUM across repetitions of each
// benchmark: the minimum is the least noisy location statistic for
// benchmark times (noise on shared CI runners is strictly additive).
//
// Comparison computes the geometric mean of the per-benchmark new/old
// ratios over the benchmarks present on both sides and exits nonzero if it
// exceeds the threshold.  Times and allocations are gated SEPARATELY:
// ns/op wobbles with the runner's neighbors, so its threshold is loose;
// allocs/op is a deterministic count on a 1-core container, so its
// threshold can be tight and catches "someone dropped the buffer reuse"
// regressions that hide inside timing noise.  Zero-allocation benchmarks
// are compared through (allocs+1), keeping 0 -> 0 a clean ratio of 1 and
// 0 -> N a real regression.  Per-benchmark outliers are printed so a
// local regression is visible in the log even when the gate passes.
//
// The -scaling mode checks PARALLEL speedup within a single recorded run
// rather than drift between runs: every `name/p=N` sub-benchmark family
// (the repo's convention for parallelism sweeps, e.g.
// BenchmarkExactParallel/p=4) is anchored at its p=1 member and the
// speedup ns/op(p=1) / ns/op(p=N) is reported per rung.  A speedup below
// 1.0 at any p means adding workers made the solve SLOWER - a coordination
// regression, and the gate fails; a p=4 speedup below -scaling-warn
// (default 2.0x) is printed as a warning, because on a shared runner a
// soft efficiency target is a nudge, not a verdict.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// Record is one benchmark's recorded measurements.
type Record struct {
	// NsOp is the minimum observed ns/op.
	NsOp float64 `json:"ns_op"`
	// AllocsOp is the minimum observed allocs/op; -1 when the run did not
	// report allocations (-benchmem absent).
	AllocsOp float64 `json:"allocs_op"`
}

// Baseline is the committed benchmark record.
type Baseline struct {
	// Schema 2 stores ns/op and allocs/op per benchmark.  Older schemas
	// are refused: re-record them with -record.
	Schema int `json:"schema"`
	// Benchmarks maps benchmark name (sub-benchmarks included, CPU suffix
	// stripped) to its record.
	Benchmarks map[string]Record `json:"benchmarks"`
}

// benchLine matches `BenchmarkName-8  3  123456 ns/op  99 B/op  4 allocs/op`
// including sub-benchmarks, extra ReportMetric columns, and runs without
// -benchmem (the B/op and allocs/op groups are optional).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:.*?\s([0-9.]+) allocs/op)?`)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	record := flag.Bool("record", false, "parse benchmark text (-in) into a JSON baseline (-out)")
	in := flag.String("in", "", "benchmark text input for -record (default stdin)")
	out := flag.String("out", "", "JSON output for -record (default stdout)")
	baselinePath := flag.String("baseline", "", "committed baseline JSON to compare against")
	newPath := flag.String("new", "", "fresh baseline JSON (from -record) to compare")
	threshold := flag.Float64("threshold", 1.30, "max allowed geomean ratio new/old for ns/op")
	allocThreshold := flag.Float64("alloc-threshold", 1.15, "max allowed geomean ratio new/old for allocs/op")
	scalingPath := flag.String("scaling", "", "recorded baseline JSON whose name/p=N groups are gated for parallel speedup")
	scalingWarn := flag.Float64("scaling-warn", 2.0, "warn when the p=4 speedup falls below this ratio")
	flag.Parse()

	switch {
	case *record:
		if err := doRecord(*in, *out); err != nil {
			log.Fatal(err)
		}
	case *scalingPath != "":
		ok, err := doScaling(*scalingPath, *scalingWarn)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *baselinePath != "" && *newPath != "":
		ok, err := doCompare(*baselinePath, *newPath, *threshold, *allocThreshold)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// parseBench reads `go test -bench` text and returns min ns/op and min
// allocs/op per name.
func parseBench(r *os.File) (map[string]Record, error) {
	mins := make(map[string]Record)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", sc.Text(), err)
		}
		allocs := -1.0
		if m[3] != "" {
			if allocs, err = strconv.ParseFloat(m[3], 64); err != nil {
				return nil, fmt.Errorf("line %q: %w", sc.Text(), err)
			}
		}
		rec, seen := mins[m[1]]
		if !seen {
			mins[m[1]] = Record{NsOp: ns, AllocsOp: allocs}
			continue
		}
		if ns < rec.NsOp {
			rec.NsOp = ns
		}
		if allocs >= 0 && (rec.AllocsOp < 0 || allocs < rec.AllocsOp) {
			rec.AllocsOp = allocs
		}
		mins[m[1]] = rec
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(mins) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	return mins, nil
}

func doRecord(inPath, outPath string) error {
	f := os.Stdin
	if inPath != "" {
		var err error
		f, err = os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
	}
	mins, err := parseBench(f)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(Baseline{Schema: 2, Benchmarks: mins}, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(outPath, data, 0o644)
}

func loadBaseline(path string) (Baseline, error) {
	var b Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	err = json.Unmarshal(data, &b)
	if b.Schema < 2 {
		return b, fmt.Errorf("%s: schema %d baseline, want 2: re-record it with benchdiff -record", path, b.Schema)
	}
	if err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Benchmarks) == 0 {
		return b, fmt.Errorf("%s: no benchmarks recorded", path)
	}
	return b, nil
}

// sortedNames returns the benchmark names of m in sorted order.
func sortedNames(m map[string]Record) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// gate is one metric's aggregate comparison.
type gate struct {
	label     string
	threshold float64
	logSum    float64
	n         int
}

func (g *gate) add(ratio float64) {
	g.logSum += math.Log(ratio)
	g.n++
}

// verdict prints the geomean and reports pass/fail.
func (g *gate) verdict() bool {
	if g.n == 0 {
		return true
	}
	geomean := math.Exp(g.logSum / float64(g.n))
	fmt.Printf("geomean %s ratio over %d benchmarks: %.3f (threshold %.3f)\n",
		g.label, g.n, geomean, g.threshold)
	if geomean > g.threshold {
		fmt.Printf("FAIL: aggregate %s regression of %.1f%% exceeds the %.1f%% gate\n",
			g.label, (geomean-1)*100, (g.threshold-1)*100)
		return false
	}
	return true
}

// doCompare prints the comparison and renders the gate verdict.  Its
// whole report is ordering-sensitive: WARN/NOTE lines and the ratio table
// must come out identically for identical inputs (CI logs are diffed
// across runs), so both baselines are walked in sorted name order.
//
//rt:deterministic
func doCompare(basePath, newPath string, threshold, allocThreshold float64) (bool, error) {
	base, err := loadBaseline(basePath)
	if err != nil {
		return false, err
	}
	fresh, err := loadBaseline(newPath)
	if err != nil {
		return false, err
	}

	type row struct {
		name        string
		old, fresh  Record
		ratio       float64 // ns/op
		allocsRatio float64 // -1 when either side lacks allocations
	}
	var rows []row
	nsGate := &gate{label: "ns/op", threshold: threshold}
	allocGate := &gate{label: "allocs/op", threshold: allocThreshold}
	for _, name := range sortedNames(base.Benchmarks) {
		oldRec := base.Benchmarks[name]
		newRec, ok := fresh.Benchmarks[name]
		if !ok {
			fmt.Printf("WARN  %-50s missing from the new run\n", name)
			continue
		}
		if oldRec.NsOp <= 0 || newRec.NsOp <= 0 {
			continue
		}
		r := row{name: name, old: oldRec, fresh: newRec, ratio: newRec.NsOp / oldRec.NsOp, allocsRatio: -1}
		nsGate.add(r.ratio)
		if oldRec.AllocsOp >= 0 && newRec.AllocsOp >= 0 {
			// +1 smoothing keeps zero-allocation benchmarks comparable:
			// 0 -> 0 is ratio 1, 0 -> 9 is a visible 10x.
			r.allocsRatio = (newRec.AllocsOp + 1) / (oldRec.AllocsOp + 1)
			allocGate.add(r.allocsRatio)
		}
		rows = append(rows, r)
	}
	for _, name := range sortedNames(fresh.Benchmarks) {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Printf("NOTE  %-50s new benchmark, not gated yet\n", name)
		}
	}
	if len(rows) == 0 {
		return false, fmt.Errorf("no benchmarks in common between %s and %s", basePath, newPath)
	}

	sort.Slice(rows, func(i, j int) bool { return rows[i].ratio > rows[j].ratio })
	fmt.Printf("%-50s %14s %14s %8s %10s %10s %8s\n",
		"BENCHMARK", "OLD ns/op", "NEW ns/op", "RATIO", "OLD allocs", "NEW allocs", "RATIO")
	for _, r := range rows {
		marker := ""
		if r.ratio > threshold {
			marker = "  <-- time regressed"
		}
		if r.allocsRatio > allocThreshold {
			marker += "  <-- allocs regressed"
		}
		oldA, newA := "-", "-"
		ratioA := "-"
		if r.allocsRatio >= 0 {
			oldA = strconv.FormatFloat(r.old.AllocsOp, 'f', 0, 64)
			newA = strconv.FormatFloat(r.fresh.AllocsOp, 'f', 0, 64)
			ratioA = strconv.FormatFloat(r.allocsRatio, 'f', 3, 64)
		}
		fmt.Printf("%-50s %14.1f %14.1f %8.3f %10s %10s %8s%s\n",
			r.name, r.old.NsOp, r.fresh.NsOp, r.ratio, oldA, newA, ratioA, marker)
	}
	fmt.Println()

	nsOK := nsGate.verdict()
	allocOK := allocGate.verdict()
	if nsOK && allocOK {
		fmt.Println("PASS")
		return true, nil
	}
	return false, nil
}

// pBench splits a parallelism-sweep sub-benchmark (`Name/p=4`) into its
// family name and worker count.
var pBench = regexp.MustCompile(`^(.+)/p=([0-9]+)$`)

// scalingRung is one measured parallelism level of a sweep family.
type scalingRung struct {
	procs   int
	nsOp    float64
	speedup float64 // ns/op(p=1) / ns/op(procs); 1.0 at the anchor
}

// scalingGroup is one name/p=N family, anchored at its p=1 member.
type scalingGroup struct {
	name  string
	rungs []scalingRung // ascending procs, the p=1 anchor first
}

// scalingGroups extracts the name/p=N families from a recorded baseline,
// sorted by family name with rungs in ascending p order.  A family
// without a p=1 anchor is an error - its sweep cannot be normalized - and
// so is a rung with a non-positive time (a corrupt record).
func scalingGroups(bench map[string]Record) ([]scalingGroup, error) {
	families := make(map[string][]scalingRung)
	var order []string
	for _, name := range sortedNames(bench) {
		m := pBench.FindStringSubmatch(name)
		if m == nil {
			continue
		}
		procs, err := strconv.Atoi(m[2])
		if err != nil || procs < 1 {
			return nil, fmt.Errorf("benchmark %q: bad parallelism rung", name)
		}
		rec := bench[name]
		if rec.NsOp <= 0 {
			return nil, fmt.Errorf("benchmark %q: non-positive ns/op %v", name, rec.NsOp)
		}
		if _, seen := families[m[1]]; !seen {
			order = append(order, m[1])
		}
		families[m[1]] = append(families[m[1]], scalingRung{procs: procs, nsOp: rec.NsOp})
	}
	groups := make([]scalingGroup, 0, len(families))
	for _, name := range order {
		rungs := families[name]
		sort.Slice(rungs, func(i, j int) bool { return rungs[i].procs < rungs[j].procs })
		if rungs[0].procs != 1 {
			return nil, fmt.Errorf("family %q has no p=1 anchor; cannot compute speedups", name)
		}
		base := rungs[0].nsOp
		for i := range rungs {
			rungs[i].speedup = base / rungs[i].nsOp
		}
		groups = append(groups, scalingGroup{name: name, rungs: rungs})
	}
	return groups, nil
}

// scalingVerdict applies the gates: a speedup below 1.0 at any rung past
// the anchor means adding workers made the solve slower - a coordination
// regression, and a failure; a p=4 rung below warnAt is an efficiency
// warning.  Both slices come back in deterministic group/rung order.
func scalingVerdict(groups []scalingGroup, warnAt float64) (failures, warnings []string) {
	for _, g := range groups {
		for _, r := range g.rungs[1:] {
			if r.speedup < 1.0 {
				failures = append(failures,
					fmt.Sprintf("%s/p=%d: speedup %.2fx < 1.00x (parallel slower than sequential)",
						g.name, r.procs, r.speedup))
			} else if r.procs == 4 && r.speedup < warnAt {
				warnings = append(warnings,
					fmt.Sprintf("%s/p=4: speedup %.2fx below the %.2fx efficiency target",
						g.name, r.speedup, warnAt))
			}
		}
	}
	return failures, warnings
}

// doScaling loads one recorded baseline and gates its parallelism sweeps.
// The report is diffed across CI runs, so it must be byte-stable for
// identical inputs: groups and rungs are emitted in sorted order.
//
//rt:deterministic
func doScaling(path string, warnAt float64) (bool, error) {
	b, err := loadBaseline(path)
	if err != nil {
		return false, err
	}
	groups, err := scalingGroups(b.Benchmarks)
	if err != nil {
		return false, err
	}
	if len(groups) == 0 {
		return false, fmt.Errorf("%s: no name/p=N benchmark families to gate", path)
	}
	fmt.Printf("%-50s %6s %14s %10s\n", "FAMILY", "p", "ns/op", "SPEEDUP")
	for _, g := range groups {
		for _, r := range g.rungs {
			fmt.Printf("%-50s %6d %14.1f %9.2fx\n", g.name, r.procs, r.nsOp, r.speedup)
		}
	}
	fmt.Println()
	failures, warnings := scalingVerdict(groups, warnAt)
	for _, w := range warnings {
		fmt.Printf("WARN  %s\n", w)
	}
	for _, f := range failures {
		fmt.Printf("FAIL  %s\n", f)
	}
	if len(failures) > 0 {
		return false, nil
	}
	fmt.Printf("PASS: %d parallelism sweeps, no rung below 1.00x\n", len(groups))
	return true, nil
}
