package main

// The three workloads: hot, fresh and resolve.  Each is a pure
// function of the seed: the i-th timed request and every warm-up request
// are derived from (seed, i) alone, so the same seed sends the same
// bytes whatever the throughput.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/solver"
)

// workload is one traffic mix.
type workload struct {
	name    string
	clients int
	// setup launches a fresh rtserve and runs the warm-up, returning the
	// warmed server; setup_s times exactly this call.
	setup func(bin string) (*server, error)
	// next is the i-th timed request.
	next func(i int) *request
	// check validates one answer; a failure fails that request.
	check func(r *request, items []solveResp) error
	// finish runs the workload-wide checks after the timed phase.
	finish func(s *server, res *loadResult, before, after serverStats) error
	// warmups lists the warm-up request bodies, for the input hash.
	warmups func() [][]byte
	// storeDir is the durable store of the serving rtserve; empty without.
	// It is cleared before each set-up.
	storeDir string
}

// rngFor derives the deterministic generator of one input from the seed,
// a stream tag and an index.
func rngFor(seed int64, stream string, i int) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range []byte(stream) {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed*1_000_003 + h + int64(i)*7_919))
}

// post1 sends one warm-up request and checks its answer.
func post1(s *server, g *genRequest) (solveResp, error) {
	r := &request{kind: "single", body: g.body(), items: []*genRequest{g}}
	status, body, err := s.solve(r.body)
	if err != nil {
		return solveResp{}, err
	}
	items, err := decodeAnswer(r, status, body)
	if err != nil {
		return solveResp{}, fmt.Errorf("warm-up: %w", err)
	}
	if err := checkAnswer(g, &items[0].rep); err != nil {
		return solveResp{}, fmt.Errorf("warm-up: %w", err)
	}
	return items[0], nil
}

// reencode returns an isomorphic encoding of the instance: nodes renamed,
// arcs shuffled.  Node indices stay put: the canonical hash is invariant
// under renaming and arc order, not under re-indexing.
func reencode(in *instance, rng *rand.Rand) *instance {
	out := &instance{nodes: in.nodes, names: make([]string, in.nodes), arcs: make([]arc, len(in.arcs))}
	tag := strconv.FormatInt(rng.Int63(), 36)
	for v := range out.names {
		out.names[v] = tag + "." + strconv.Itoa(v)
	}
	for i, j := range rng.Perm(len(in.arcs)) {
		out.arcs[i] = in.arcs[j]
	}
	return out
}

// hot: 48 instances x 2 budgets, all primed; every timed request is a
// result-cache hit, one in ten as a never-seen isomorphic re-encoding.
func newHot(seed int64) *workload {
	// Size classes (instances, approximate body size): 16 x ~1.5 KB
	// exact-routed, 12 x ~9 KB, 10 x ~30 KB and 10 x ~100 KB
	// series-parallel.  Plain requests pick a body uniformly and
	// re-encodings take the ~1.5 KB class, so by request the classes hold
	// 30 % (plain ~1.5 KB), 32.5 % (re-encodings and ~9 KB: p50), 18.75 %
	// (~30 KB) and 18.75 % (~100 KB: p90) of the traffic.
	type class struct{ n, leaves int }
	classes := []class{{16, 0}, {12, 100}, {10, 330}, {10, 1100}}
	const smallBodies = 2 * 16 // the ~1.5 KB class comes first in gens
	var gens []*genRequest
	k := 0
	for _, c := range classes {
		for j := 0; j < c.n; j++ {
			rng := rngFor(seed, "hot", k)
			k++
			var g *genRequest
			if c.leaves == 0 {
				g = genRoute(rng, routeExact)
			} else {
				g = &genRequest{route: routeSP, budget: 8 + rng.Int63n(16)}
				g.inst = seriesParallel(rng, c.leaves, func() fnSpec { return stepFn(rng, 1+rng.Intn(4), 30, 4) })
			}
			twin := *g
			twin.budget += 3
			gens = append(gens, g, &twin)
		}
	}
	bodies := make([][]byte, len(gens))
	for i, g := range gens {
		bodies[i] = g.body()
	}
	refs := make([]solveResp, len(gens))
	w := &workload{name: "hot", clients: 2}
	w.warmups = func() [][]byte { return bodies }
	w.setup = func(bin string) (*server, error) {
		s, err := startServer(bin, w.clients)
		if err != nil {
			return nil, err
		}
		for i, g := range gens {
			it, err := post1(s, g)
			if err != nil {
				s.stop()
				return nil, err
			}
			refs[i] = it
		}
		return s, nil
	}
	w.next = func(i int) *request {
		rng := rngFor(seed, "hot-req", i)
		if i%10 != 9 {
			k := rng.Intn(len(gens))
			return &request{id: i, kind: "single", body: bodies[k], items: []*genRequest{gens[k]}, ref: &refs[k]}
		}
		k := rng.Intn(smallBodies)
		alias := &genRequest{route: gens[k].route, budget: gens[k].budget, inst: reencode(gens[k].inst, rng)}
		return &request{id: i, kind: "reenc", body: alias.body(), items: []*genRequest{gens[k]}, ref: &refs[k]}
	}
	w.check = func(r *request, items []solveResp) error {
		if !items[0].Cached {
			return fmt.Errorf("hot request %d not served from the result cache", r.id)
		}
		if !bytes.Equal(items[0].Report, r.ref.Report) {
			return fmt.Errorf("hot request %d: report differs from the primed reference", r.id)
		}
		return nil
	}
	w.finish = func(_ *server, _ *loadResult, before, after serverStats) error {
		if d := after.Pool.Jobs - before.Pool.Jobs; d != 0 {
			return fmt.Errorf("hot phase ran %d pool jobs, want 0", d)
		}
		return nil
	}
	return w
}

// freshMix is one block of the fresh workload's route mix, by item.  On
// one core a single solve costs ~0.7 ms on spdp and exact, 3-14 ms on
// kway5, ~15 ms on binary4 and 30-35 ms on bicriteria and frankwolfe,
// and a batch 45-65 ms; by request count singles on the two cheap routes
// take the lowest 26 %, kway5 the next 13 %, binary4 39-66 % (holding
// p50), the two roundings up to 87.5 %, and batches the rest (holding
// p90).
var freshMix = []struct {
	route string
	n     int
}{
	{routeSP, 3}, {routeExact, 3}, {routeKWay, 3}, {routeBinary, 6}, {routeBicriteria, 2}, {routeFW, 3},
}

// freshMixBlock is the number of items in one mix block.
const freshMixBlock = 20

// freshItem is the k-th distinct item of the fresh stream: its route is
// the k-th entry of a per-block shuffle of freshMix.
func freshItem(seed int64, k int) *genRequest {
	block := k / freshMixBlock
	var order []string
	for _, m := range freshMix {
		for j := 0; j < m.n; j++ {
			order = append(order, m.route)
		}
	}
	rng := rngFor(seed, "fresh-block", block)
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	return genRoute(rngFor(seed, "fresh-item", k), order[k%freshMixBlock])
}

// batchSize and batchDistinct shape the fresh workload's batches: eight
// items, two of them repeating earlier items of the same batch.
const (
	batchEvery    = 8
	batchSize     = 8
	batchDistinct = 6
)

// freshRequest builds the i-th fresh request: every batchEvery-th one is
// a batch, the rest single solves of never-seen instances.
func freshRequest(seed int64, i int) *request {
	perBlock := batchEvery - 1 + batchDistinct
	k := (i/batchEvery)*perBlock + i%batchEvery
	if i%batchEvery != batchEvery-1 {
		g := freshItem(seed, k)
		return &request{id: i, kind: "single", body: g.body(), items: []*genRequest{g}}
	}
	items := make([]*genRequest, 0, batchSize)
	for j := 0; j < batchDistinct; j++ {
		items = append(items, freshItem(seed, k+j))
	}
	rng := rngFor(seed, "fresh-dup", i)
	for len(items) < batchSize {
		items = append(items, items[rng.Intn(batchDistinct)])
	}
	rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
	b := []byte(`{"batch":[`)
	for j, g := range items {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, g.body()...)
	}
	b = append(b, "]}"...)
	return &request{id: i, kind: "batch", body: b, items: items}
}

// warmupSeed seeds the warm-up inputs.  It is fixed, so every run's
// set-up does the same work and setup_s compares across seeds.
const warmupSeed = 0x5eed

// freshWarmupRounds is how many times fresh's warm-up visits every route.
// One round takes ~0.07 s, of which starting rtserve is a large and
// noisy part: setup_s spread 0.2 between runs of identical code.  Four
// rounds put the set-up mostly on solves.
const freshWarmupRounds = 4

// warmupPerRoute is rounds requests per route from the warm-up seed.
func warmupPerRoute(seed int64, rs []string, rounds int) []*genRequest {
	var gs []*genRequest
	for k := 0; k < rounds; k++ {
		for i, r := range rs {
			gs = append(gs, genRoute(rngFor(seed, "warmup", k*len(rs)+i), r))
		}
	}
	return gs
}

// checkItems validates every item of a fresh or resolve answer,
// and that duplicates inside a batch got byte-identical reports.
func checkItems(r *request, items []solveResp) error {
	first := map[*genRequest][]byte{}
	for j, g := range r.items {
		if err := checkAnswer(g, &items[j].rep); err != nil {
			return fmt.Errorf("request %d item %d: %w", r.id, j, err)
		}
		if ref, ok := first[g]; ok && !bytes.Equal(ref, items[j].Report) {
			return fmt.Errorf("request %d item %d: duplicate's report differs", r.id, j)
		}
		first[g] = items[j].Report
	}
	return nil
}

// fresh: every instance new, drawn from the six-route mix; one request in
// eight is an eight-item batch carrying two in-batch duplicates.
func newFresh(seed int64) *workload {
	warm := warmupPerRoute(warmupSeed, routes, freshWarmupRounds)
	w := &workload{name: "fresh", clients: 2, check: checkItems}
	w.warmups = func() [][]byte { return bodiesOf(warm) }
	w.setup = func(bin string) (*server, error) { return startWarm(bin, w.clients, 1, warm) }
	w.next = func(i int) *request { return freshRequest(seed, i) }
	w.finish = func(_ *server, res *loadResult, _, _ serverStats) error {
		seen := map[string]bool{}
		for _, smp := range res.samples {
			for j := range smp.items {
				if smp.computed(j) {
					seen[smp.items[j].rep.Solver] = true
				}
			}
		}
		for _, r := range routes {
			if !seen[r] {
				return fmt.Errorf("fresh phase computed no %s answer", r)
			}
		}
		return nil
	}
	return w
}

func bodiesOf(gs []*genRequest) [][]byte {
	out := make([][]byte, len(gs))
	for i, g := range gs {
		out[i] = g.body()
	}
	return out
}

// startWarm launches rtserve for the given number of client connections
// and sends the warm-up requests over par of them, each taking the next
// request not yet sent.
func startWarm(bin string, clients, par int, warm []*genRequest, args ...string) (*server, error) {
	s, err := startServer(bin, clients, args...)
	if err != nil {
		return nil, err
	}
	var next atomic.Int64
	errs := make(chan error, par)
	for c := 0; c < par; c++ {
		go func() {
			for i := int(next.Add(1) - 1); i < len(warm); i = int(next.Add(1) - 1) {
				if _, err := post1(s, warm[i]); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < par; c++ {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// Resolve workload shape.  In every eight requests, two recall an exact
// base, one edits an exact base and five edit a frankwolfe base, so p50
// and p90 both fall inside the frankwolfe edits (~30 ms, one core) rather
// than on the short exact edits (~2-3 ms, mostly warm seeding and the
// store's file writes), whose time swung by 1.5x between runs of
// identical code with the host's file-system speed.
//
// Recalls cycle through the exact bases.  A recalled base enters the
// 1024-entry result LRU, so it must be evicted before its next recall to
// be a store hit again: between two recalls of one base come
// 4 x resolveExactBases - 1 other requests, almost all with distinct
// keys, and 320 bases make that 1279, a quarter above the LRU's size.
const (
	resolveFWBases    = 4
	resolveExactBases = 320
	resolveMaxEdit    = 16
)

// genResolveExact draws an exact-routed base: 32+ arcs, so an edit of up
// to 16 arcs stays within the warm-start limit of half the arcs, with at
// most ten 3-4 breakpoint arcs so the assignment space stays under 2^20.
func genResolveExact(rng *rand.Rand) *genRequest {
	g := &genRequest{route: routeExact, budget: 3 + rng.Int63n(6)}
	steps := 0
	g.inst = layered(rng, 4, 5, 4, func() fnSpec {
		if steps < 10 && rng.Intn(3) == 0 {
			steps++
			return stepFn(rng, 3+rng.Intn(2), 40, 3)
		}
		return stepFn(rng, 1, 40, 3)
	})
	return g
}

// genResolveFW draws a ~1000-arc frankwolfe-routed base.  At budgets of
// 140-180 its duality gap closes in ~50-70 iterations; at 60 and below it
// often runs to the 2400-iteration cap, which would make the set-up and
// edit cost swing with the seed.
func genResolveFW(rng *rand.Rand) *genRequest {
	g := &genRequest{route: routeFW, budget: 140 + rng.Int63n(40)}
	g.inst = layered(rng, 40, 16, 8, func() fnSpec { return stepFn(rng, 2+rng.Intn(3), 60, 4) })
	return g
}

// edit returns a copy of base with 1..resolveMaxEdit arcs' duration
// functions slowed by 1-5 time units at every breakpoint: same topology,
// same breakpoint counts (so the same route), a different instance.
func edit(base *genRequest, rng *rand.Rand) *genRequest {
	in := &instance{nodes: base.inst.nodes, arcs: append([]arc(nil), base.inst.arcs...)}
	n := 1 + rng.Intn(resolveMaxEdit)
	for _, e := range rng.Perm(len(in.arcs))[:n] {
		d := 1 + rng.Int63n(5)
		fn := in.arcs[e].fn
		if fn.kind == "step" {
			ts := make([]tuple, len(fn.tuples))
			for j, tp := range fn.tuples {
				ts[j] = tuple{tp.r, tp.t + d}
			}
			fn.tuples = ts
		} else {
			fn.t0 += d
		}
		in.arcs[e].fn = fn
	}
	return &genRequest{route: base.route, budget: base.budget, inst: in}
}

// resolve: rtserve with a durable store.  Warm-up solves the bases over
// two connections, so both vCPUs work as in the timed phases of hot and
// fresh, restarts rtserve on the store and waits for the reload; timed
// requests are edits (store miss, neighbor donor, warm-started solve,
// write-through) and recalls (store hit, no pool job), from one client.
// The bases come from the fixed warm-up seed, so every run's set-up does
// the same work; the edits and the recall order come from the run's seed.
// bases holds the frankwolfe, then the exact bases.
func newResolve(seed int64, scratch string) *workload {
	var bases []*genRequest
	for i := 0; i < resolveFWBases; i++ {
		bases = append(bases, genResolveFW(rngFor(warmupSeed, "resolve-fw", i)))
	}
	for i := 0; i < resolveExactBases; i++ {
		bases = append(bases, genResolveExact(rngFor(warmupSeed, "resolve-exact", i)))
	}
	recallOrder := rngFor(seed, "resolve-recall", 0).Perm(resolveExactBases)
	w := &workload{name: "resolve", clients: 1}
	w.warmups = func() [][]byte { return bodiesOf(bases) }
	w.storeDir = filepath.Join(scratch, "store")
	w.setup = func(bin string) (*server, error) {
		// The store directory is empty: run clears it before each set-up.
		first, err := startWarm(bin, 2, 2, bases, "-store", w.storeDir)
		if err != nil {
			return nil, err
		}
		first.stop()
		return startServer(bin, w.clients, "-store", w.storeDir)
	}
	w.next = func(i int) *request {
		rng := rngFor(seed, "resolve-req", i)
		if i%4 == 3 {
			g := bases[resolveFWBases+recallOrder[(i/4)%resolveExactBases]]
			return &request{id: i, kind: "recall", body: g.body(), items: []*genRequest{g}}
		}
		base := bases[rng.Intn(resolveFWBases)]
		if i%8 == 1 {
			base = bases[resolveFWBases+rng.Intn(resolveExactBases)]
		}
		g := edit(base, rng)
		return &request{id: i, kind: "edit", body: g.body(), items: []*genRequest{g}}
	}
	w.check = func(r *request, items []solveResp) error {
		if r.kind == "recall" && !items[0].StoreHit {
			return fmt.Errorf("recall %d not served from the store", r.id)
		}
		return checkItems(r, items)
	}
	w.finish = func(_ *server, res *loadResult, _, _ serverStats) error {
		return warmMatchesCold(res)
	}
	return w
}

// warmMatchesCold re-solves every exact-routed edit cold, in-process, and
// requires the served (warm-started) makespan to equal it.
func warmMatchesCold(res *loadResult) error {
	for _, smp := range res.samples {
		if smp.req.kind != "edit" || smp.err != nil || smp.items[0].rep.Solver != routeExact {
			continue
		}
		g := smp.req.items[0]
		var inst core.Instance
		if err := json.Unmarshal(g.inst.appendJSON(nil), &inst); err != nil {
			return err
		}
		rep, err := solver.SolveCompiledOptions(context.Background(), "auto", core.Compile(&inst),
			solver.NewOptions(solver.WithBudget(g.budget)))
		if err != nil {
			return fmt.Errorf("cold re-solve of edit %d: %w", smp.req.id, err)
		}
		if rep.Sol.Makespan != smp.items[0].rep.Makespan {
			smp.err = fmt.Errorf("edit %d: warm makespan %d, cold %d", smp.req.id, smp.items[0].rep.Makespan, rep.Sol.Makespan)
		}
	}
	return nil
}
