package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/duration"
	"repro/internal/scenario"
	"repro/internal/solver"
	"repro/internal/store"
)

// storeInstanceJSON builds the wire form of a small two-path instance;
// bump shifts one arc's base duration, producing a same-topology neighbor
// differing on exactly one arc.
func storeInstanceJSON(t testing.TB, bump int64) []byte {
	t.Helper()
	return storeEditJSON(t, [6]int64{2: bump})
}

// storeEditJSON builds the same six-arc instance with arc e's base
// duration raised by bump[e]: every nonzero entry touches one arc.
func storeEditJSON(t testing.TB, bump [6]int64) []byte {
	t.Helper()
	g := dag.New()
	s := g.AddNode("s")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	snk := g.AddNode("t")
	g.AddEdge(s, a)
	g.AddEdge(a, b)
	g.AddEdge(b, snk)
	g.AddEdge(s, c)
	g.AddEdge(c, snk)
	g.AddEdge(a, c)
	step := func(t0, t1, r int64) duration.Func {
		return duration.MustStep(duration.Tuple{R: 0, T: t0}, duration.Tuple{R: r, T: t1})
	}
	fns := []duration.Func{
		step(10+bump[0], 4, 2),
		step(9+bump[1], 3, 2),
		step(8+bump[2], 2, 3),
		step(12+bump[3], 5, 2),
		step(11+bump[4], 6, 2),
		duration.Constant(1 + bump[5]),
	}
	inst, err := core.NewInstance(g, fns)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(inst)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func storeSolveBody(t testing.TB, bump int64) string {
	return storeBody(storeInstanceJSON(t, bump))
}

func storeBody(inst []byte) string {
	return fmt.Sprintf(`{"solver":"exact","options":{"budget":5,"parallelism":1},"instance":%s}`, inst)
}

// TestStoreRestartRoundTrip is the durability contract end to end: a
// second server opened on the first server's store directory must answer
// a previously solved request straight from disk — store_hit set, pool
// untouched, report identical.
func TestStoreRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, tsA := newTestServer(t, Config{Workers: 1, StoreDir: dir})

	body := storeSolveBody(t, 0)
	var first SolveResponse
	if code := postSolve(t, tsA, body, &first); code != 200 {
		t.Fatalf("first solve: status %d, error %q", code, first.Error)
	}
	if first.StoreHit {
		t.Fatal("first solve claimed a store hit on an empty store")
	}
	if first.Report == nil || !first.Report.Complete {
		t.Fatal("first solve did not complete")
	}

	// "Restart": a fresh server over the same directory.
	svcB, tsB := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	if lr, ok := svcB.StoreLoad(); !ok || lr.Reports != 1 || lr.Instances != 1 || lr.Corrupt != 0 {
		t.Fatalf("restarted server loaded %+v, want 1 report + 1 instance", lr)
	}

	var again SolveResponse
	if code := postSolve(t, tsB, body, &again); code != 200 {
		t.Fatalf("restarted solve: status %d, error %q", code, again.Error)
	}
	if !again.StoreHit {
		t.Fatal("restarted solve missed the durable store")
	}
	if again.Warm {
		t.Fatal("a store hit must not be warm-started; nothing was solved")
	}
	gotB, _ := json.Marshal(again.Report)
	wantB, _ := json.Marshal(first.Report)
	if string(gotB) != string(wantB) {
		t.Fatalf("stored report differs from the original:\n%s\n%s", gotB, wantB)
	}
	stats := svcB.Stats()
	if stats.Pool.Jobs != 0 {
		t.Fatalf("store hit queued %d pool jobs, want 0", stats.Pool.Jobs)
	}
	if stats.Store == nil || stats.Store.Entries != 1 || stats.Store.Hits != 1 {
		t.Fatalf("store stats %+v, want 1 entry and 1 hit", stats.Store)
	}
}

// TestWarmStartFromStoredNeighbor solves an instance, then its one-arc
// neighbor on the same server: the second solve must be warm-seeded from
// the stored solution and still certify the neighbor's own optimum.
func TestWarmStartFromStoredNeighbor(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newTestServer(t, Config{Workers: 1, StoreDir: dir})

	var base SolveResponse
	if code := postSolve(t, ts, storeSolveBody(t, 0), &base); code != 200 {
		t.Fatalf("base solve: status %d, error %q", code, base.Error)
	}
	var warm SolveResponse
	if code := postSolve(t, ts, storeSolveBody(t, 3), &warm); code != 200 {
		t.Fatalf("neighbor solve: status %d, error %q", code, warm.Error)
	}
	if !warm.Warm {
		t.Fatal("neighbor solve was not warm-started")
	}
	if warm.StoreHit || warm.Cached {
		t.Fatal("a distinct neighbor cannot be a store or cache hit")
	}
	if got := svc.Stats().WarmHits; got != 1 {
		t.Fatalf("warm_hits = %d, want 1", got)
	}

	// Soundness: a cold solve of the neighbor on a store-less server must
	// certify the identical optimum.
	_, tsCold := newTestServer(t, Config{Workers: 1})
	var cold SolveResponse
	if code := postSolve(t, tsCold, storeSolveBody(t, 3), &cold); code != 200 {
		t.Fatalf("cold reference solve: status %d, error %q", code, cold.Error)
	}
	if warm.Report.Makespan != cold.Report.Makespan || warm.Report.Resources != cold.Report.Resources {
		t.Fatalf("warm optimum (%d,%d) != cold (%d,%d)",
			warm.Report.Makespan, warm.Report.Resources, cold.Report.Makespan, cold.Report.Resources)
	}

	// The neighbor's solve was itself stored; an isomorphic re-encoding of
	// it (same canonical hash) must now be a store hit on a fresh server.
	svcC, tsC := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	var again SolveResponse
	if code := postSolve(t, tsC, storeSolveBody(t, 3), &again); code != 200 {
		t.Fatalf("replay solve: status %d, error %q", code, again.Error)
	}
	if !again.StoreHit {
		t.Fatal("neighbor result was not written through to the store")
	}
	if lr, _ := svcC.StoreLoad(); lr.Reports != 2 || lr.Instances != 2 {
		t.Fatalf("store holds %+v, want 2 reports + 2 instances", lr)
	}
}

// TestStatsExposesStore checks /v1/stats carries the store block and the
// warm-hit counter over the wire.
func TestStatsExposesStore(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	var first SolveResponse
	if code := postSolve(t, ts, storeSolveBody(t, 0), &first); code != 200 {
		t.Fatalf("solve: status %d, error %q", code, first.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Store == nil || stats.Store.Entries != 1 {
		t.Fatalf("stats store block %+v, want 1 entry", stats.Store)
	}
	if stats.Store.Misses == 0 {
		t.Fatal("the cold solve should have counted a store miss")
	}
}

// TestWarmStartWithoutInstanceFiles restarts a server over a store whose
// instance files are gone: the donor is chosen by the digests in its
// report, so a one-arc edit still warm-starts, and still certifies the
// edit's own optimum.
func TestWarmStartWithoutInstanceFiles(t *testing.T) {
	dir := t.TempDir()
	_, tsA := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	var base SolveResponse
	if code := postSolve(t, tsA, storeSolveBody(t, 0), &base); code != 200 {
		t.Fatalf("base solve: status %d, error %q", code, base.Error)
	}
	files, err := filepath.Glob(filepath.Join(dir, "instances", "*"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want 1 instance file, got %v (%v)", files, err)
	}
	for _, f := range files {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}

	svcB, tsB := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	if lr, _ := svcB.StoreLoad(); lr.Reports != 1 || lr.Instances != 0 {
		t.Fatalf("restarted server loaded %+v, want 1 report and no instance", lr)
	}
	var warm SolveResponse
	if code := postSolve(t, tsB, storeSolveBody(t, 3), &warm); code != 200 {
		t.Fatalf("edit solve: status %d, error %q", code, warm.Error)
	}
	if !warm.Warm || warm.StoreHit {
		t.Fatalf("edit: warm %v, store hit %v; want a warm-started solve", warm.Warm, warm.StoreHit)
	}
	if got := svcB.Stats().WarmHits; got != 1 {
		t.Fatalf("warm_hits = %d, want 1", got)
	}
	_, tsCold := newTestServer(t, Config{Workers: 1})
	var cold SolveResponse
	if code := postSolve(t, tsCold, storeSolveBody(t, 3), &cold); code != 200 {
		t.Fatalf("cold reference solve: status %d, error %q", code, cold.Error)
	}
	if warm.Report.Makespan != cold.Report.Makespan || warm.Report.Resources != cold.Report.Resources {
		t.Fatalf("warm optimum (%d,%d) != cold (%d,%d)",
			warm.Report.Makespan, warm.Report.Resources, cold.Report.Makespan, cold.Report.Resources)
	}
}

// TestWarmStartThreshold pins the donor rule: an edit touching exactly
// half the arcs warm-starts, one touching more than half solves cold.
func TestWarmStartThreshold(t *testing.T) {
	for _, tc := range []struct {
		name string
		bump [6]int64
		warm bool
	}{
		{"half", [6]int64{1, 1, 1, 0, 0, 0}, true},
		{"more than half", [6]int64{1, 1, 1, 1, 0, 0}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, ts := newTestServer(t, Config{Workers: 1, StoreDir: t.TempDir()})
			var base, edit SolveResponse
			if code := postSolve(t, ts, storeSolveBody(t, 0), &base); code != 200 {
				t.Fatalf("base solve: status %d, error %q", code, base.Error)
			}
			if code := postSolve(t, ts, storeBody(storeEditJSON(t, tc.bump)), &edit); code != 200 {
				t.Fatalf("edit solve: status %d, error %q", code, edit.Error)
			}
			if edit.Warm != tc.warm {
				t.Fatalf("edit warm = %v, want %v", edit.Warm, tc.warm)
			}
			if got, want := svc.Stats().WarmHits, map[bool]int64{true: 1}[tc.warm]; got != want {
				t.Fatalf("warm_hits = %d, want %d", got, want)
			}
		})
	}
}

// TestLegacyReportNeverDonates opens a store whose report was written
// without digests, as before they existed: it still answers a store hit,
// but a one-arc edit solves cold.
func TestLegacyReportNeverDonates(t *testing.T) {
	dir := t.TempDir()
	var inst core.Instance
	if err := json.Unmarshal(storeInstanceJSON(t, 0), &inst); err != nil {
		t.Fatal(err)
	}
	c := core.Compile(&inst)
	opts := solver.NewOptions(solver.WithBudget(5), solver.WithParallelism(1))
	rep, err := solver.SolveCompiledOptions(context.Background(), "exact", c, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	legacy := store.Meta{Hash: c.Hash(), Sketch: c.Sketch(), Solver: "exact", OptKey: opts.CacheKey()}
	if err := st.PutReport(solver.ResultCacheKey("exact", c, opts), legacy, rep.Wire()); err != nil {
		t.Fatal(err)
	}

	svcB, tsB := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	if lr, _ := svcB.StoreLoad(); lr.Reports != 1 || lr.Corrupt != 0 {
		t.Fatalf("restarted server loaded %+v, want 1 clean report", lr)
	}
	var again SolveResponse
	if code := postSolve(t, tsB, storeSolveBody(t, 0), &again); code != 200 {
		t.Fatalf("recall: status %d, error %q", code, again.Error)
	}
	gotB, _ := json.Marshal(again.Report)
	wantB, _ := json.Marshal(rep.Wire())
	if !again.StoreHit || string(gotB) != string(wantB) {
		t.Fatalf("recall: store hit %v, report %s; want a hit on %s", again.StoreHit, gotB, wantB)
	}
	var edit SolveResponse
	if code := postSolve(t, tsB, storeSolveBody(t, 3), &edit); code != 200 {
		t.Fatalf("edit solve: status %d, error %q", code, edit.Error)
	}
	if edit.Warm || svcB.Stats().WarmHits != 0 {
		t.Fatal("a report without digests donated a warm start")
	}
}

// BenchmarkWarmSeed times the warm-start decision alone: a store holding
// one resolve-shaped donor (a 40x16 layered DAG of about 1,000 arcs with
// 2-4 breakpoints each, solved by auto at budget 150), asked for a donor
// for a 16-arc edit of it.  The digests choose the donor in memory; its
// witness flow is read from its report entry.
func BenchmarkWarmSeed(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := scenario.NewGen(1).Layered(40, 16, 8)
	tables := make([][]duration.Tuple, g.NumEdges())
	for e := range tables {
		ts := []duration.Tuple{{R: 0, T: 30 + rng.Int63n(30)}}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			last := ts[len(ts)-1]
			ts = append(ts, duration.Tuple{R: last.R + 1 + rng.Int63n(4), T: last.T * 2 / 3})
		}
		tables[e] = ts
	}
	body := func(shift map[int]int64) []byte {
		fns := make([]duration.Func, len(tables))
		for e, ts := range tables {
			ts = append([]duration.Tuple(nil), ts...)
			for i := range ts {
				ts[i].T += shift[e]
			}
			fns[e] = duration.MustStep(ts...)
		}
		raw, err := json.Marshal(core.MustInstance(g, fns))
		if err != nil {
			b.Fatal(err)
		}
		return []byte(fmt.Sprintf(`{"solver":"auto","options":{"budget":150},"instance":%s}`, raw))
	}
	svc, err := New(Config{Workers: 1, StoreDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	if w := servePost(svc.Handler(), body(nil)); w.Code != http.StatusOK {
		b.Fatalf("donor solve failed: %d %s", w.Code, w.Body.String())
	}
	shift := map[int]int64{}
	for _, e := range rng.Perm(len(tables))[:16] {
		shift[e] = 1 + rng.Int63n(5)
	}
	var req SolveRequest
	if err := json.Unmarshal(body(shift), &req); err != nil {
		b.Fatal(err)
	}
	p, err := svc.prepare(req, nil, time.Now())
	if err != nil {
		b.Fatal(err)
	}
	if svc.warmSeed(p.c, p.name, p.opts) == nil {
		b.Fatal("the 16-arc edit found no donor")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warmSeedSink = svc.warmSeed(p.c, p.name, p.opts)
	}
}

var warmSeedSink []int64
