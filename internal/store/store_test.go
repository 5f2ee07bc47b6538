package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/solver"
)

func testReport(i int) solver.WireReport {
	return solver.WireReport{
		Solver:    "exact",
		Objective: "min-makespan",
		Makespan:  int64(10 + i),
		Resources: int64(i),
		Flow:      []int64{int64(i), 1, int64(i), 1},
		Exact:     true,
		Complete:  true,
		WallMS:    1.5,
	}
}

func testMeta(i int) Meta {
	return Meta{
		Hash:   fmt.Sprintf("hash-%04d", i),
		Sketch: "sketch-a",
		Solver: "exact",
		OptKey: "b5.t-1.a0.5.n0.p1",
		Arcs:   []uint32{uint32(i), 1, uint32(i), 1},
	}
}

// testInstance is an instance body as a client might send it, spacing
// and newlines included, which the store must keep verbatim.
func testInstance(i int) []byte {
	return []byte(fmt.Sprintf("{\"nodes\": [\"s\", \"t\"],\n  \"i\": %d}\n", i))
}

// TestRoundTrip writes entries, reopens the directory, and checks every
// report survives and every instance comes back byte for byte as put.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("exact|hash-%04d|opts", i)
		if err := s.PutReport(key, testMeta(i), testReport(i)); err != nil {
			t.Fatal(err)
		}
		if err := s.PutInstance(testMeta(i).Hash, "sketch-a", testInstance(i)); err != nil {
			t.Fatal(err)
		}
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lr := re.Load(); lr.Reports != 5 || lr.Instances != 5 || lr.Corrupt != 0 {
		t.Fatalf("reload found %+v, want 5 reports + 5 instances, 0 corrupt", lr)
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("exact|hash-%04d|opts", i)
		got, ok := re.GetReport(key)
		if !ok {
			t.Fatalf("report %d missing after reopen", i)
		}
		want, _ := json.Marshal(testReport(i))
		gotb, _ := json.Marshal(got)
		if string(gotb) != string(want) {
			t.Fatalf("report %d mutated: %s vs %s", i, gotb, want)
		}
		inst, ok := re.GetInstance(testMeta(i).Hash)
		if !ok {
			t.Fatalf("instance %d missing after reopen", i)
		}
		if !bytes.Equal(inst, testInstance(i)) {
			t.Fatalf("instance %d bytes mutated: %q, want %q", i, inst, testInstance(i))
		}
	}
	if st := re.Stats(); st.Entries != 5 || st.Hits != 5 || st.Bytes == 0 || st.Bytes != s.Stats().Bytes {
		t.Fatalf("stats %+v, want 5 entries, 5 hits, and the %d bytes written", st, s.Stats().Bytes)
	}

	// Incomplete reports must never be persisted.
	inc := testReport(9)
	inc.Complete = false
	if err := re.PutReport("exact|hash-inc|opts", testMeta(9), inc); err != nil {
		t.Fatal(err)
	}
	if _, ok := re.GetReport("exact|hash-inc|opts"); ok {
		t.Fatal("incomplete report was stored")
	}
}

// TestCorruptAndTruncatedEntriesSkipped damages stored files in every
// flavor — truncation, bit-flip, garbage, stray temp — and checks Open
// survives, counts them, and loads the healthy remainder.
func TestCorruptAndTruncatedEntriesSkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("exact|hash-%04d|opts", i)
		if err := s.PutReport(key, testMeta(i), testReport(i)); err != nil {
			t.Fatal(err)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "reports", "*.json"))
	if err != nil || len(files) != 4 {
		t.Fatalf("want 4 report files, got %d (%v)", len(files), err)
	}

	// files is sorted; damage the first three differently.
	raw, _ := os.ReadFile(files[0])
	os.WriteFile(files[0], raw[:len(raw)/2], 0o644) // truncated
	raw, _ = os.ReadFile(files[1])
	raw[len(raw)/2] ^= 0x40 // checksum mismatch
	os.WriteFile(files[1], raw, 0o644)
	os.WriteFile(files[2], []byte("not json at all"), 0o644) // garbage
	os.WriteFile(filepath.Join(dir, "reports", "crashed.123.tmp"), []byte("partial"), 0o644)

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("Open must survive corruption: %v", err)
	}
	lr := re.Load()
	if lr.Reports != 1 {
		t.Fatalf("loaded %d reports, want 1 healthy survivor", lr.Reports)
	}
	if lr.Corrupt != 3 || len(lr.Errors) != 3 {
		t.Fatalf("counted %d corrupt with %d errors, want 3/3: %v", lr.Corrupt, len(lr.Errors), lr.Errors)
	}
	if st := re.Stats(); st.Corrupt != 3 {
		t.Fatalf("Stats().Corrupt = %d, want 3", st.Corrupt)
	}
	if _, err := os.Stat(filepath.Join(dir, "reports", "crashed.123.tmp")); !os.IsNotExist(err) {
		t.Fatal("stray temp file was not swept")
	}

	// A demand-read of a corrupted instance is skipped and counted too.
	if err := re.PutInstance("hash-x", "sk", []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	ipath := filepath.Join(dir, "instances", "hash-x.json")
	os.WriteFile(ipath, []byte("zap"), 0o644)
	if _, ok := re.GetInstance("hash-x"); ok {
		t.Fatal("corrupted instance served")
	}
	if st := re.Stats(); st.Corrupt != 4 {
		t.Fatalf("Stats().Corrupt = %d after bad instance read, want 4", st.Corrupt)
	}
}

// TestVersionMismatchIgnored rewrites a valid entry's header to name a
// foreign format (its checksum still correct) and checks it is skipped —
// not loaded, not counted as corrupt.
func TestVersionMismatchIgnored(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutReport("k", testMeta(0), testReport(0)); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "reports", "*.json"))
	if len(files) != 1 {
		t.Fatalf("want 1 file, got %d", len(files))
	}
	// Rename the format and keep the payload and its checksum, so only
	// the format check can reject it.
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte(format+" ")) {
		t.Fatalf("entry does not start with its header: %.40q", raw)
	}
	raw = append([]byte("rtt-store-v3"), raw[len(format):]...)
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lr := re.Load()
	if lr.Reports != 0 || lr.Skipped != 1 || lr.Corrupt != 0 {
		t.Fatalf("load report %+v, want 0 loaded, 1 skipped, 0 corrupt", lr)
	}
	if _, ok := re.GetReport("k"); ok {
		t.Fatal("foreign-format entry was served")
	}
}

// legacyEnvelope renders payload as the JSON envelope that stores wrote
// before rtt-store-v2: {"checksum": sha256(payload), "payload": payload}.
func legacyEnvelope(t testing.TB, payload any) []byte {
	t.Helper()
	pb, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(pb)
	raw, err := json.Marshal(map[string]any{"checksum": hex.EncodeToString(sum[:]), "payload": json.RawMessage(pb)})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestLegacyEnvelopeSkipped places a report and an instance written by
// the JSON-envelope format under their final names and checks that Open
// skips and counts both — not loaded, not corrupt — and that a new put
// of the same key replaces the old file.
func TestLegacyEnvelopeSkipped(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err != nil { // creates the subdirectories
		t.Fatal(err)
	}
	const key = "exact|hash-0000|opts"
	m := testMeta(0)
	report := legacyEnvelope(t, map[string]any{"version": 1, "key": key, "meta": m, "report": testReport(0)})
	instance := legacyEnvelope(t, map[string]any{"version": 1, "hash": m.Hash, "sketch": m.Sketch,
		"instance": json.RawMessage(`{"nodes":["s","t"]}`)})
	if err := os.WriteFile(filepath.Join(dir, "reports", keyFile(key)), report, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "instances", m.Hash+".json"), instance, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lr := re.Load(); lr.Reports != 0 || lr.Instances != 0 || lr.Skipped != 2 || lr.Corrupt != 0 {
		t.Fatalf("load report %+v, want 0 loaded, 2 skipped, 0 corrupt", lr)
	}
	if _, ok := re.GetReport(key); ok {
		t.Fatal("a legacy envelope was served as a report")
	}
	if _, ok := re.GetInstance(m.Hash); ok {
		t.Fatal("a legacy envelope was served as an instance")
	}
	if st := re.Stats(); st.Corrupt != 0 {
		t.Fatalf("Stats().Corrupt = %d, want 0", st.Corrupt)
	}

	if err := re.PutReport(key, m, testReport(0)); err != nil {
		t.Fatal(err)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lr := again.Load(); lr.Reports != 1 || lr.Skipped != 1 {
		t.Fatalf("after a new put: %+v, want 1 report loaded and only the instance skipped", lr)
	}
}

// TestConcurrentWriters hammers one store from many goroutines (run
// under -race in CI) and checks every write survives a reopen.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				n := w*perWriter + i
				key := fmt.Sprintf("exact|hash-%04d|opts", n)
				if err := s.PutReport(key, testMeta(n), testReport(n)); err != nil {
					t.Error(err)
				}
				if err := s.PutInstance(testMeta(n).Hash, "sketch-a", []byte(`{"n":1}`)); err != nil {
					t.Error(err)
				}
				s.GetReport(key)
				s.Neighbor("sketch-a", "exact", testMeta(n).OptKey, testMeta(n).Hash)
				s.Stats()
			}
		}(w)
	}
	wg.Wait()

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lr := re.Load(); lr.Reports != writers*perWriter || lr.Corrupt != 0 {
		t.Fatalf("reload found %+v, want %d clean reports", lr, writers*perWriter)
	}
}

// TestConcurrentPutsOneKey races 8 different reports onto one key: the
// first put wins, so exactly one report file exists and every read, in
// this process and after a reopen, returns that one report.
func TestConcurrentPutsOneKey(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const key, writers = "exact|hash-0000|opts", 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := s.PutReport(key, testMeta(w), testReport(w)); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if files, _ := filepath.Glob(filepath.Join(dir, "reports", "*")); len(files) != 1 {
		t.Fatalf("%d report files after racing puts of one key, want 1: %v", len(files), files)
	}
	won, ok := s.GetReport(key)
	if !ok {
		t.Fatal("no report after racing puts")
	}
	want, _ := json.Marshal(won)
	got := make([][]byte, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rep, _ := s.GetReport(key)
			got[w], _ = json.Marshal(rep)
		}(w)
	}
	wg.Wait()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := re.GetReport(key)
	reopened, _ := json.Marshal(rep)
	for _, g := range append(got, reopened) {
		if !bytes.Equal(g, want) {
			t.Fatalf("read %s, want the first put's %s", g, want)
		}
	}
	if lr := re.Load(); lr.Reports != 1 || lr.Corrupt != 0 {
		t.Fatalf("reopen found %+v, want 1 clean report", lr)
	}
}

// TestNeighborLookup checks donor selection: same sketch+solver+options,
// different hash, deterministic choice, and the no-donor cases.
func TestNeighborLookup(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		m := testMeta(i)
		key := fmt.Sprintf("exact|%s|%s", m.Hash, m.OptKey)
		if err := s.PutReport(key, m, testReport(i)); err != nil {
			t.Fatal(err)
		}
		if err := s.PutInstance(m.Hash, m.Sketch, []byte(`{"i":1}`)); err != nil {
			t.Fatal(err)
		}
	}

	m, rep, ok := s.Neighbor("sketch-a", "exact", testMeta(0).OptKey, "hash-0001")
	if !ok {
		t.Fatal("no neighbor found")
	}
	if m.Hash == "hash-0001" {
		t.Fatal("neighbor returned the excluded instance itself")
	}
	if m.Hash != "hash-0000" { // sorted key order makes the choice deterministic
		t.Fatalf("neighbor picked %s, want hash-0000", m.Hash)
	}
	if len(rep.Flow) == 0 {
		t.Fatal("neighbor report has no witness flow")
	}

	if _, _, ok := s.Neighbor("sketch-other", "exact", testMeta(0).OptKey, ""); ok {
		t.Fatal("found a neighbor for an unknown sketch")
	}
	if _, _, ok := s.Neighbor("sketch-a", "frankwolfe", testMeta(0).OptKey, ""); ok {
		t.Fatal("found a neighbor across solver names")
	}
	if _, _, ok := s.Neighbor("sketch-a", "exact", "other-opts", ""); ok {
		t.Fatal("found a neighbor across option keys")
	}
}

// TestNeighborQualifiesByDigests checks that donors qualify by their
// per-arc digests, not by their instance files: a report stored without
// digests (as before they existed) still answers GetReport but never
// donates, while one with digests donates with no instance file at all,
// and its 1,000 digests survive a reopen unchanged, at about 4 bytes per
// arc in memory and at most 6 per arc on disk.
func TestNeighborQualifiesByDigests(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	legacy := testMeta(0)
	legacy.Arcs = nil
	if err := s.PutReport("exact|hash-0000|opts", legacy, testReport(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutInstance(legacy.Hash, legacy.Sketch, []byte(`{"i":0}`)); err != nil {
		t.Fatal(err)
	}
	donor := testMeta(1)
	donor.Arcs = make([]uint32, 1000)
	for i := range donor.Arcs {
		donor.Arcs[i] = uint32(i) * 2654435761
	}
	if err := s.PutReport("exact|hash-0001|opts", donor, testReport(1)); err != nil {
		t.Fatal(err)
	}

	// The two entries differ only in their digests (the keys, hashes and
	// reports have equal lengths), so the size gap is the digests' cost.
	legacyFile, err := os.Stat(filepath.Join(dir, "reports", keyFile("exact|hash-0000|opts")))
	if err != nil {
		t.Fatal(err)
	}
	donorFile, err := os.Stat(filepath.Join(dir, "reports", keyFile("exact|hash-0001|opts")))
	if err != nil {
		t.Fatal(err)
	}
	if perArc := float64(donorFile.Size()-legacyFile.Size()) / float64(len(donor.Arcs)); perArc > 6 {
		t.Fatalf("stored digests cost %.2f bytes per arc, want at most 6", perArc)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{s, re} {
		if _, ok := st.GetReport("exact|hash-0000|opts"); !ok {
			t.Fatal("a report without digests must still answer hits")
		}
		m, _, ok := st.Neighbor("sketch-a", "exact", legacy.OptKey, "hash-9999")
		if !ok {
			t.Fatal("the report with digests did not donate without its instance file")
		}
		if m.Hash != "hash-0001" {
			t.Fatalf("neighbor picked %s, want hash-0001 (hash-0000 has no digests)", m.Hash)
		}
		if got, want := fmt.Sprint(m.Arcs), fmt.Sprint(donor.Arcs); got != want {
			t.Fatalf("donor digests %s, want %s", got, want)
		}
		if cap(m.Arcs) != len(m.Arcs) {
			t.Fatalf("donor digests hold %d words for %d arcs", cap(m.Arcs), len(m.Arcs))
		}
		if _, _, ok := st.Neighbor("sketch-a", "exact", legacy.OptKey, "hash-0001"); ok {
			t.Fatal("the report without digests donated")
		}
	}
}

// TestDemandReadCorruption damages report entries after Open, so only the
// on-demand reads can notice: a hit on a damaged entry is a miss, counted
// corrupt once and forgotten, and Neighbor passes over a damaged donor to
// the next one in key order.
func TestDemandReadCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 3)
	for i := range keys {
		m := testMeta(i)
		keys[i] = fmt.Sprintf("exact|%s|%s", m.Hash, m.OptKey)
		if err := s.PutReport(keys[i], m, testReport(i)); err != nil {
			t.Fatal(err)
		}
	}
	flip := func(key string) {
		path := filepath.Join(dir, "reports", keyFile(key))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-2] ^= 0x01
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()

	flip(keys[2])
	for i := 0; i < 2; i++ {
		if _, ok := s.GetReport(keys[2]); ok {
			t.Fatal("a damaged report was served")
		}
	}
	st := s.Stats()
	if st.Corrupt != 1 || st.Entries != 2 || st.Misses != before.Misses+2 || st.Hits != before.Hits {
		t.Fatalf("after two reads of a damaged entry: %+v; want 1 corrupt, 2 entries, 2 more misses", st)
	}
	if st.Bytes >= before.Bytes {
		t.Fatalf("forgotten entry still counted in Bytes: %d of %d", st.Bytes, before.Bytes)
	}

	// keys are in sorted order: hash-0000 is the first donor, hash-0001
	// the next.
	flip(keys[0])
	m, rep, ok := s.Neighbor("sketch-a", "exact", testMeta(0).OptKey, "hash-9999")
	if !ok || m.Hash != "hash-0001" || rep.Makespan != testReport(1).Makespan {
		t.Fatalf("neighbor %v %+v %v; want hash-0001's report, past the damaged hash-0000", ok, m, rep)
	}
	if st := s.Stats(); st.Corrupt != 2 || st.Entries != 1 {
		t.Fatalf("after the damaged donor: %+v; want 2 corrupt, 1 entry", st)
	}
	if got, ok := s.GetReport(keys[1]); !ok || got.Makespan != testReport(1).Makespan {
		t.Fatal("the healthy report no longer answers")
	}
}

// TestMisfiledReportSkipped copies a valid report entry under another
// name: reports are read on demand by their key's file name, so Open
// counts the copy corrupt and loads the original alone.
func TestMisfiledReportSkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const key = "exact|hash-0000|opts"
	if err := s.PutReport(key, testMeta(0), testReport(0)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "reports", keyFile(key)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "reports", "copy.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lr := re.Load(); lr.Reports != 1 || lr.Corrupt != 1 {
		t.Fatalf("load report %+v, want 1 loaded and the copy corrupt", lr)
	}
	if _, ok := re.GetReport(key); !ok {
		t.Fatal("the original report does not answer")
	}
}
