package main

// Per-layer accounting for the traced run.  Every number is taken from
// outside the server: response timing fields, /v1/stats deltas, and spans
// the benchmark records around its own in-process calls into each
// layer's public functions (the traced replay).

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/solver"
	"repro/internal/store"
)

// replayMax and replayBudget bound the traced replay: at most this many
// requests, spread evenly over the traced phase, within this much time.
const (
	replayMax    = 120
	replayBudget = 15 * time.Second
)

// requestSpans records, per request, the client "request" span and two
// child intervals derived from each answer: "service" (its wall_ms, taken
// to end when the answer arrived) and, for computed answers, "solve"
// (report.wall_ms, ending with the service interval).
func requestSpans(tr *tracer, p *phase) {
	for _, smp := range p.load.samples {
		rid := tr.add(-1, smp.req.id, "request", smp.start, smp.end)
		for j := range smp.items {
			it := &smp.items[j]
			svcStart := smp.end.Add(-msDur(it.WallMS))
			if svcStart.Before(smp.start) {
				svcStart = smp.start
			}
			sid := tr.add(rid, smp.req.id, "service", svcStart, smp.end)
			if smp.computed(j) {
				solveStart := smp.end.Add(-msDur(it.rep.WallMS))
				if solveStart.Before(svcStart) {
					solveStart = svcStart
				}
				tr.add(sid, smp.req.id, "solve", solveStart, smp.end)
			}
		}
	}
}

func msDur(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// wireEnvelope is a /v1/solve body as the replay reads it.
type wireEnvelope struct {
	Instance json.RawMessage `json:"instance"`
	Options  struct {
		Budget int64 `json:"budget"`
	} `json:"options"`
	Batch []wireEnvelope `json:"batch"`
}

// replayItem is one distinct solve of a replayed request.
type replayItem struct {
	raw    json.RawMessage
	budget int64
}

func replayItems(r *request) ([]replayItem, error) {
	var env wireEnvelope
	if err := json.Unmarshal(r.body, &env); err != nil {
		return nil, fmt.Errorf("replay: request %d: %w", r.id, err)
	}
	if len(env.Batch) == 0 {
		return []replayItem{{env.Instance, env.Options.Budget}}, nil
	}
	seen := map[string]bool{}
	var out []replayItem
	for _, b := range env.Batch {
		if !seen[string(b.Instance)] {
			seen[string(b.Instance)] = true
			out = append(out, replayItem{b.Instance, b.Options.Budget})
		}
	}
	return out, nil
}

// replayer holds the stores the replay calls into.
type replayer struct {
	tr      *tracer
	served  *store.Store // the server's populated store, reopened; nil without
	scratch *store.Store // a fresh store taking the replay's writes; nil without
}

// replay runs one request's items through the public entry points the
// service calls, one span around each call, and returns the items.
func (rp *replayer) replay(r *request) ([]replayItem, error) {
	items, err := replayItems(r)
	if err != nil {
		return nil, err
	}
	tr := r.id
	for _, it := range items {
		t0 := time.Now()
		root := rp.tr.add(-1, tr, "replay", t0, t0)
		var inst core.Instance
		var decErr error
		rp.tr.do(root, tr, "core.decode", func() { decErr = json.Unmarshal(it.raw, &inst) })
		if decErr != nil {
			return nil, fmt.Errorf("replay decode: %w", decErr)
		}
		var c *core.Compiled
		rp.tr.do(root, tr, "core.compile", func() { c = core.Compile(&inst) })
		var hash, sketch string
		rp.tr.do(root, tr, "core.hash", func() { hash, sketch = c.Hash(), c.Sketch() })
		opts := solver.NewOptions(solver.WithBudget(it.budget))
		if rp.served != nil {
			rp.warmSeed(root, tr, c, hash, sketch, &opts)
		}
		var rep *solver.Report
		var solveErr error
		rp.tr.do(root, tr, "solver.solve", func() {
			rep, solveErr = solver.SolveCompiledOptions(context.Background(), "auto", c, opts)
		})
		if solveErr != nil {
			return nil, fmt.Errorf("replay solve: %w", solveErr)
		}
		var wire solver.WireReport
		rp.tr.do(root, tr, "solver.encode", func() {
			wire = rep.Wire()
			_, solveErr = json.Marshal(struct {
				Hash   string            `json:"hash"`
				Report solver.WireReport `json:"report"`
			}{hash, wire})
		})
		if solveErr != nil {
			return nil, solveErr
		}
		if rp.scratch != nil {
			key := solver.ResultCacheKey("auto", c, opts)
			meta := store.Meta{Hash: hash, Sketch: sketch, Solver: "auto", OptKey: opts.CacheKey()}
			rp.tr.do(root, tr, "store.put", func() {
				if err := rp.scratch.PutReport(key, meta, wire); err == nil {
					_ = rp.scratch.PutInstance(hash, sketch, it.raw)
				}
			})
			rp.tr.do(root, tr, "store.get_report", func() { rp.scratch.GetReport(key) })
		}
		rp.tr.spans[root].End = int64(time.Since(rp.tr.epoch))
	}
	return items, nil
}

// warmSeed replays the service's warm-start path against the server's
// store: neighbor lookup, donor re-read, donor decode and compile, diff.
func (rp *replayer) warmSeed(root, req int, c *core.Compiled, hash, sketch string, opts *solver.Options) {
	var meta store.Meta
	var donor solver.WireReport
	var ok bool
	rp.tr.do(root, req, "store.neighbor", func() {
		meta, donor, ok = rp.served.Neighbor(sketch, "auto", opts.CacheKey(), hash)
	})
	if !ok {
		return
	}
	var raw []byte
	rp.tr.do(root, req, "store.get_instance", func() { raw, ok = rp.served.GetInstance(meta.Hash) })
	if !ok {
		return
	}
	var nc *core.Compiled
	var err error
	rp.tr.do(root, req, "warm.donor_compile", func() {
		var ninst core.Instance
		if err = json.Unmarshal(raw, &ninst); err == nil {
			nc = core.Compile(&ninst)
		}
	})
	if err != nil {
		return
	}
	var d core.InstanceDiff
	rp.tr.do(root, req, "core.diff", func() { d = core.Diff(c, nc) })
	if d.SameTopology && 2*len(d.TouchedArcs) <= c.Inst.G.NumEdges() {
		opts.Incumbent = donor.Flow
	}
}

// replaySet picks the requests to replay: every request whose instance
// the server decoded (on hot only the re-encodings; elsewhere all),
// spread evenly, at most replayMax.
func replaySet(w *workload, p *phase) []*request {
	var cand []*request
	for _, smp := range p.load.samples {
		if smp.err == nil && (w.name != "hot" || smp.req.kind == "reenc") {
			cand = append(cand, smp.req)
		}
	}
	if len(cand) <= replayMax {
		return cand
	}
	out := make([]*request, 0, replayMax)
	for i := 0; i < replayMax; i++ {
		out = append(out, cand[i*len(cand)/replayMax])
	}
	return out
}

// perLayer computes the per-layer metrics of a traced phase.  The server
// must already be stopped: the store is reopened from its directory.
func perLayer(w *workload, p *phase, scratch, tracePath string) (map[string]metric, error) {
	tr := newTracer(p.load.samples[0].start)
	requestSpans(tr, p)
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Response fields.
	var items, computed int
	var wall, overhead []float64
	solveMS := map[string]float64{}
	answers := map[string]int{}
	var exactNodes, relaxIters int
	for _, smp := range p.load.samples {
		for j := range smp.items {
			it := &smp.items[j]
			items++
			wall = append(wall, it.WallMS)
			if !smp.computed(j) {
				continue
			}
			computed++
			overhead = append(overhead, it.WallMS-it.rep.WallMS)
			solveMS[it.rep.Solver] += it.rep.WallMS
			answers[it.rep.Solver]++
			switch it.rep.Solver {
			case routeExact:
				exactNodes += it.rep.Nodes
			case routeFW:
				relaxIters += it.rep.Nodes
			}
		}
	}
	self := selfMS(tr.spans)
	put("service.http_ms", median(self["request"]), "ms")
	put("service.wall_ms", median(wall), "ms")
	put("service.overhead_ms", median(overhead), "ms")
	put("service.items", float64(items), "count")
	put("solver.computed", float64(computed), "count")
	for _, r := range routes {
		put("solver.solve_ms."+r, solveMS[r], "ms")
		share := 0.0
		if computed > 0 {
			share = float64(answers[r]) / float64(computed)
		}
		put("solver.share."+r, share, "ratio")
	}
	put("exact.nodes", float64(exactNodes), "count")
	put("relax.iters", float64(relaxIters), "count")

	// /v1/stats deltas.
	b, a := p.before, p.after
	ratio := func(x int64) float64 {
		if items == 0 {
			return 0
		}
		return float64(x) / float64(items)
	}
	put("service.result_hit_ratio", ratio(a.Cache.Hits-b.Cache.Hits), "ratio")
	put("service.coalesced", float64(a.Cache.Coalesced-b.Cache.Coalesced), "count")
	put("service.evictions", float64(a.Cache.Evictions-b.Cache.Evictions), "count")
	put("service.compiled_hit_ratio", ratio(a.Compiled.Hits-b.Compiled.Hits), "ratio")
	put("service.compiled_aliased", float64(a.Compiled.Aliased-b.Compiled.Aliased), "count")
	put("service.pool_jobs", float64(a.Pool.Jobs-b.Pool.Jobs), "count")
	put("service.pool_busy_ms", a.Pool.BusyMS-b.Pool.BusyMS, "ms")
	put("service.warm_seeded", float64(a.WarmHits-b.WarmHits), "count")
	var sh, sm, se, sb float64
	if a.Store != nil && b.Store != nil {
		sh = float64(a.Store.Hits - b.Store.Hits)
		sm = float64(a.Store.Misses - b.Store.Misses)
		se = float64(a.Store.Entries - b.Store.Entries)
		sb = float64(a.Store.Bytes - b.Store.Bytes)
	}
	put("store.hits", sh, "count")
	put("store.misses", sm, "count")
	put("store.entries", se, "count")
	put("store.bytes", sb, "bytes")

	// Traced replay.
	rp := &replayer{tr: tr}
	var openMS float64
	if w.storeDir != "" {
		t0 := time.Now()
		var err error
		if rp.served, err = store.Open(w.storeDir); err != nil {
			return nil, fmt.Errorf("reopen store: %w", err)
		}
		tr.add(-1, -1, "store.open", t0, time.Now())
		openMS = float64(time.Since(t0)) / float64(time.Millisecond)
		dir := filepath.Join(scratch, "replay-store")
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if rp.scratch, err = store.Open(dir); err != nil {
			return nil, fmt.Errorf("open scratch store: %w", err)
		}
	}
	set := replaySet(w, p)
	deadline := time.Now().Add(replayBudget)
	var bytesIn []float64
	replayed := 0
	for _, r := range set {
		if time.Now().After(deadline) {
			break
		}
		items, err := rp.replay(r)
		if err != nil {
			return nil, err
		}
		for _, it := range items {
			bytesIn = append(bytesIn, float64(len(it.raw)))
		}
		replayed++
	}
	self = selfMS(tr.spans)
	put("core.replayed", float64(replayed), "count")
	put("core.bytes", median(bytesIn), "bytes")
	put("core.decode_ms", median(self["core.decode"]), "ms")
	put("core.compile_ms", median(self["core.compile"]), "ms")
	put("core.hash_ms", median(self["core.hash"]), "ms")
	put("core.diff_ms", median(self["core.diff"]), "ms")
	put("solver.encode_ms", median(self["solver.encode"]), "ms")
	put("store.open_ms", openMS, "ms")
	put("store.neighbor_ms", median(self["store.neighbor"]), "ms")
	put("store.get_instance_ms", median(self["store.get_instance"]), "ms")
	put("store.put_ms", median(self["store.put"]), "ms")
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), tracePath)
	return m, nil
}
