package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// writeTemp materializes benchmark text as an open file for parseBench,
// which reads *os.File (it normally consumes stdin or -in).
func writeTemp(t *testing.T, text string) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(text+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// bench builds the map a recorded baseline would hold for the given
// name -> ns/op pairs (allocations are irrelevant to the scaling gate).
func bench(pairs map[string]float64) map[string]Record {
	m := make(map[string]Record, len(pairs))
	for name, ns := range pairs {
		m[name] = Record{NsOp: ns, AllocsOp: -1}
	}
	return m
}

// TestScalingGroupsAnchorsAndSorts: families come back name-sorted with
// ascending rungs, speedups normalized to the p=1 anchor, and non-sweep
// benchmarks ignored.
func TestScalingGroupsAnchorsAndSorts(t *testing.T) {
	groups, err := scalingGroups(bench(map[string]float64{
		"BenchmarkZeta/p=2":    500,
		"BenchmarkZeta/p=1":    1000,
		"BenchmarkAlpha/p=8":   250,
		"BenchmarkAlpha/p=1":   1000,
		"BenchmarkAlpha/p=4":   400,
		"BenchmarkOther":       77, // not a sweep
		"BenchmarkOther/sub=3": 88, // sub-benchmark, but not a p= rung
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("got %d families, want 2: %+v", len(groups), groups)
	}
	if groups[0].name != "BenchmarkAlpha" || groups[1].name != "BenchmarkZeta" {
		t.Fatalf("families not name-sorted: %q, %q", groups[0].name, groups[1].name)
	}
	alpha := groups[0]
	wantProcs := []int{1, 4, 8}
	wantSpeedup := []float64{1.0, 2.5, 4.0}
	if len(alpha.rungs) != len(wantProcs) {
		t.Fatalf("alpha rungs: %+v", alpha.rungs)
	}
	for i, r := range alpha.rungs {
		if r.procs != wantProcs[i] || r.speedup != wantSpeedup[i] {
			t.Fatalf("alpha rung %d: got p=%d %.2fx, want p=%d %.2fx",
				i, r.procs, r.speedup, wantProcs[i], wantSpeedup[i])
		}
	}
}

// TestScalingGroupsRequiresAnchor: a sweep without p=1 cannot be
// normalized and must be a hard error, not a silent skip.
func TestScalingGroupsRequiresAnchor(t *testing.T) {
	_, err := scalingGroups(bench(map[string]float64{
		"BenchmarkNoAnchor/p=2": 500,
		"BenchmarkNoAnchor/p=4": 300,
	}))
	if err == nil || !strings.Contains(err.Error(), "no p=1 anchor") {
		t.Fatalf("want a missing-anchor error, got %v", err)
	}
}

// TestScalingVerdictGates: a rung slower than sequential fails, a p=4
// rung under the efficiency target warns, and a healthy sweep does
// neither.  Sub-2x speedups at rungs other than p=4 are not warned - the
// soft target is specified at 4 workers only.
func TestScalingVerdictGates(t *testing.T) {
	groups, err := scalingGroups(bench(map[string]float64{
		// Healthy: 3.2x at p=4.
		"BenchmarkGood/p=1": 1000,
		"BenchmarkGood/p=4": 312.5,
		// Inefficient but not regressed: 1.25x at p=4.
		"BenchmarkLazy/p=1": 1000,
		"BenchmarkLazy/p=4": 800,
		// Regressed: p=8 is slower than p=1.
		"BenchmarkBad/p=1": 1000,
		"BenchmarkBad/p=2": 900, // 1.11x: above water, no warning (not p=4)
		"BenchmarkBad/p=8": 1200,
	}))
	if err != nil {
		t.Fatal(err)
	}
	failures, warnings := scalingVerdict(groups, 2.0)
	if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkBad/p=8") {
		t.Fatalf("failures = %v; want exactly the BenchmarkBad/p=8 regression", failures)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "BenchmarkLazy/p=4") {
		t.Fatalf("warnings = %v; want exactly the BenchmarkLazy/p=4 efficiency nudge", warnings)
	}
}

// TestScalingVerdictExactlyOne: speedup exactly 1.0 at p>1 passes the
// regression gate (not strictly slower), and exactly the warn threshold
// at p=4 passes the warning gate (the comparison is strict-below).
func TestScalingVerdictExactlyOne(t *testing.T) {
	groups, err := scalingGroups(bench(map[string]float64{
		"BenchmarkFlat/p=1": 1000,
		"BenchmarkFlat/p=2": 1000, // exactly 1.0x
		"BenchmarkFlat/p=4": 500,  // exactly 2.0x
	}))
	if err != nil {
		t.Fatal(err)
	}
	failures, warnings := scalingVerdict(groups, 2.0)
	if len(failures) != 0 || len(warnings) != 0 {
		t.Fatalf("boundary speedups must pass clean; failures=%v warnings=%v", failures, warnings)
	}
}

// TestParseBenchKeepsMinima: repeated lines for one benchmark keep the
// minimum ns/op and allocs/op independently, and the -GOMAXPROCS suffix
// is stripped so runs on different core counts share names.
func TestParseBenchKeepsMinima(t *testing.T) {
	f := writeTemp(t, strings.Join([]string{
		"goos: linux",
		"BenchmarkExactParallel/p=4-8        3   2000000 ns/op   512 B/op   40 allocs/op",
		"BenchmarkExactParallel/p=4-8        3   1500000 ns/op   512 B/op   44 allocs/op",
		"BenchmarkNoMem-8                    5    900 ns/op",
		"PASS",
	}, "\n"))
	mins, _, err := parseBench(f)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := mins["BenchmarkExactParallel/p=4"]
	if !ok {
		t.Fatalf("CPU suffix not stripped: %v", mins)
	}
	if rec.NsOp != 1500000 || rec.AllocsOp != 40 {
		t.Fatalf("minima not kept per-metric: %+v", rec)
	}
	if rec := mins["BenchmarkNoMem"]; rec.NsOp != 900 || rec.AllocsOp != -1 {
		t.Fatalf("benchmem-less line misparsed: %+v", rec)
	}
}

// TestLoadBaselineRefusesOldSchemas: a schema-2 baseline loads, while a
// schema-1 one (a plain name -> ns/op map) fails with an error that says
// how to replace it.
func TestLoadBaselineRefusesOldSchemas(t *testing.T) {
	dir := t.TempDir()
	v2 := filepath.Join(dir, "v2.json")
	if err := os.WriteFile(v2, []byte(`{"schema":2,"benchmarks":{"BenchmarkX":{"ns_op":100,"allocs_op":3}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := loadBaseline(v2)
	if err != nil {
		t.Fatal(err)
	}
	if rec := b.Benchmarks["BenchmarkX"]; rec.NsOp != 100 || rec.AllocsOp != 3 {
		t.Fatalf("schema-2 record misread: %+v", rec)
	}

	v1 := filepath.Join(dir, "v1.json")
	if err := os.WriteFile(v1, []byte(`{"schema":1,"benchmarks":{"BenchmarkX":100}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBaseline(v1); err == nil || !strings.Contains(err.Error(), "-record") {
		t.Fatalf("schema-1 baseline: error %v, want one telling to re-record with -record", err)
	}
}

// captureStdout returns what f prints to standard output.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan string)
	go func() {
		out, _ := io.ReadAll(r)
		done <- string(out)
	}()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	f()
	w.Close()
	return <-done
}

// writeBaseline writes a baseline document into dir and returns its path.
func writeBaseline(t *testing.T, dir, name, doc string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestParseBenchGOMAXPROCS: the lines' -N suffix is the GOMAXPROCS they
// ran at, and lines without one ran at 1.
func TestParseBenchGOMAXPROCS(t *testing.T) {
	for _, tc := range []struct {
		line string
		want int
	}{
		{"BenchmarkExactParallel/p=2-8   3   2000000 ns/op", 8},
		{"BenchmarkExactParallel/p=2     3   2000000 ns/op", 1},
	} {
		_, procs, err := parseBench(writeTemp(t, tc.line))
		if err != nil {
			t.Fatal(err)
		}
		if procs != tc.want {
			t.Errorf("%q: GOMAXPROCS %d, want %d", tc.line, procs, tc.want)
		}
	}
}

// TestRecordWritesMachine: -record writes gomaxprocs and num_cpu beside
// schema, from the lines' suffix and from this process.
func TestRecordWritesMachine(t *testing.T) {
	dir := t.TempDir()
	in := writeBaseline(t, dir, "bench.txt", "BenchmarkX/p=4-4   3   100 ns/op   2 allocs/op\n")
	out := filepath.Join(dir, "bench.json")
	if err := doRecord(in, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.Schema != 2 || b.GOMAXPROCS != 4 || b.NumCPU != runtime.NumCPU() {
		t.Fatalf("recorded schema %d, gomaxprocs %d, num_cpu %d; want 2, 4, %d", b.Schema, b.GOMAXPROCS, b.NumCPU, runtime.NumCPU())
	}
	doc := string(data)
	if i, j, k := strings.Index(doc, `"schema"`), strings.Index(doc, `"gomaxprocs"`), strings.Index(doc, `"num_cpu"`); !(i < j && j < k && k < strings.Index(doc, `"benchmarks"`)) {
		t.Fatalf("machine fields not beside schema:\n%s", doc)
	}
}

// TestMachineUnrecorded: a baseline written before the machine fields
// still loads, says so when printed, and oversubscribes nothing.
func TestMachineUnrecorded(t *testing.T) {
	path := writeBaseline(t, t.TempDir(), "old.json", `{"schema":2,"benchmarks":{"BenchmarkX":{"ns_op":100,"allocs_op":3}}}`)
	b, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.machine(); got != "GOMAXPROCS unrecorded, NumCPU unrecorded" {
		t.Fatalf("machine() = %q", got)
	}
	if b.oversubscribed(64) {
		t.Fatal("an unrecorded machine must not mark rungs oversubscribed")
	}
}

// TestComparePrintsMachines: the compare mode names both runs' machines,
// and the gate does not depend on them.
func TestComparePrintsMachines(t *testing.T) {
	dir := t.TempDir()
	base := writeBaseline(t, dir, "base.json", `{"schema":2,"benchmarks":{"BenchmarkX":{"ns_op":100,"allocs_op":3}}}`)
	fresh := writeBaseline(t, dir, "new.json", `{"schema":2,"gomaxprocs":2,"num_cpu":4,"benchmarks":{"BenchmarkX":{"ns_op":100,"allocs_op":3}}}`)
	var ok bool
	var err error
	out := captureStdout(t, func() { ok, err = doCompare(base, fresh, 1.30, 1.15) })
	if err != nil || !ok {
		t.Fatalf("equal runs: ok %v, err %v", ok, err)
	}
	for _, want := range []string{"GOMAXPROCS unrecorded, NumCPU unrecorded", "GOMAXPROCS 2, NumCPU 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output lacks %q:\n%s", want, out)
		}
	}
}

// TestScalingLabelsOversubscribed: rungs past the recorded GOMAXPROCS or
// NumCPU are labeled oversubscribed and still gated.
func TestScalingLabelsOversubscribed(t *testing.T) {
	path := writeBaseline(t, t.TempDir(), "run.json", `{"schema":2,"gomaxprocs":4,"num_cpu":2,"benchmarks":{
		"BenchmarkS/p=1":{"ns_op":1000,"allocs_op":1},
		"BenchmarkS/p=2":{"ns_op":600,"allocs_op":1},
		"BenchmarkS/p=4":{"ns_op":500,"allocs_op":1},
		"BenchmarkS/p=8":{"ns_op":1100,"allocs_op":1}}}`)
	var ok bool
	var err error
	out := captureStdout(t, func() { ok, err = doScaling(path, 2.0) })
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("p=8 is slower than p=1; the gate must fail even though it is oversubscribed:\n%s", out)
	}
	if !strings.Contains(out, "GOMAXPROCS 4, NumCPU 2") {
		t.Errorf("scaling output lacks the machine:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[0] != "BenchmarkS" {
			continue
		}
		labeled := strings.HasSuffix(line, "oversubscribed")
		if want := fields[1] == "4" || fields[1] == "8"; labeled != want {
			t.Errorf("p=%s: oversubscribed label %v, want %v", fields[1], labeled, want)
		}
	}
}
