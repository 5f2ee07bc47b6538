// Package exact solves the discrete resource-time tradeoff problem with
// resource reuse over paths *exactly* on small instances.
//
// The paper proves both optimization directions strongly NP-hard
// (Theorems 4.1-4.4), so no polynomial algorithm is expected; this package
// provides the optimum oracle that the reproduction needs in two places:
// measuring the true approximation ratios of Section 3's algorithms on
// random instances (Table 1), and machine-verifying the hardness gadgets of
// Section 4 in both directions.
//
// The search works on the space of tuple assignments rather than flows.  A
// tuple assignment picks, for every arc, one breakpoint of its duration
// function; the assignment is realizable iff some integral flow meets every
// picked breakpoint's resource requirement, and the cheapest such flow is a
// minimum flow with lower bounds (computed exactly by internal/flow).  Any
// flow induces the assignment of the breakpoints it reaches, so searching
// assignments loses nothing.  The branching rule is path repair: if the
// current critical path is too long, some arc on it must be raised to a
// higher breakpoint; children raise each candidate arc in turn, freezing
// the arcs tried before it (the classical hitting-set enumeration, which
// visits every minimal repair exactly once).
//
// # Parallel search
//
// The branch-and-bound runs on a work-stealing worker pool
// (Options.Parallelism; the default is GOMAXPROCS).  Every worker owns a
// Chase-Lev deque of frontier tasks: the root's children are dealt
// round-robin to seed the deques, after which parallelism spreads by
// DEMAND-DRIVEN SHEDDING — a worker counts as hungry while it hunts for
// work, and any worker expanding a node with several branching candidates
// sheds the trailing siblings into its own deque the moment somebody is
// hungry.  Owners pop their own deque LIFO (diving back into the subtree
// they just shed, caches warm); hungry workers steal FIFO from the top,
// taking the oldest — shallowest, biggest — subtrees.  A search with no
// hungry workers sheds nothing and runs each subtree by pure recursion,
// so the steady state does the same work as the sequential search.
// Termination is a single atomic count of live tasks (queued plus
// executing): shedding increments it before the push, finishing a task's
// subtree decrements it, and a hungry worker exits when it reads zero.
//
// Workers share one incumbent: the best objective value lives in an
// atomic integer that pruning reads lock-free on every node, while
// improvements take a mutex to install the value and its witness flow
// together.  Node accounting, the node budget, early-exit ("done") and
// cancellation flags are all atomics, so the search is safe under the
// race detector and the returned *optimum value* is deterministic across
// worker counts (the witness flow may differ when several flows are
// optimal; stealing reorders only WHEN subtrees run, never what they
// contain).  Each worker owns a flow.MinFlowSolver, so the per-node
// min-flow reuses one transformed network instead of rebuilding it; the
// workers themselves, their task buffers, and the flow networks are
// recycled through package-level pools, so a solve allocates no
// per-worker state in steady state no matter the parallelism.
package exact

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/duration"
	"repro/internal/flow"
)

// Options tunes the search.
type Options struct {
	// MaxNodes bounds the number of search nodes expanded; 0 means the
	// default of 1<<20.  When exceeded the result carries Complete=false.
	MaxNodes int
	// Parallelism is the number of branch-and-bound workers: 0 uses
	// GOMAXPROCS, 1 forces the sequential search, larger values size the
	// worker pool.  The optimum value returned by a complete search does
	// not depend on it.
	Parallelism int
	// Incumbent optionally seeds the search with a known-feasible flow
	// (typically a stored neighbor's solution): if it is a conserved flow
	// within the budget (and, in target mode, meeting the target), its
	// objective value becomes the starting incumbent and prunes the search
	// from node one.  An invalid or infeasible seed is silently ignored —
	// it is a hint, never an assumption.  Seeding cannot change the
	// optimum a complete search returns: the incumbent is only ever
	// REPLACED by strictly better solutions, and every prune it enables
	// discards only subtrees that cannot beat it.
	Incumbent []int64
	// Progress, when non-nil, receives the search's anytime trajectory:
	// one event when the global lower bound (the floor) is established and
	// one per incumbent improvement, each carrying the incumbent objective
	// (-1 before the first solution), the floor (0 before it exists) and
	// the nodes expanded so far.  Improvements are monotone and finite, so
	// the callback never rides the per-node hot path; it is invoked under
	// the incumbent mutex from whichever worker improved, so it must be
	// quick, non-blocking, and safe for concurrent memory access.  Purely
	// observational: it never steers the search.
	Progress func(incumbent, bound float64, nodes int64)
}

// Stats reports how the search went.
type Stats struct {
	Nodes    int  // search nodes expanded
	Complete bool // false if MaxNodes was exhausted or the context fired (result may be suboptimal)
	// Interrupted carries the context error when the search was stopped
	// by cancellation or a deadline; the best solution found so far (if
	// any) is still returned, so callers get a usable partial result.
	Interrupted error
}

// ErrNoSolution is returned by MinResource when no assignment meets the
// makespan target even with unlimited resources.
var ErrNoSolution = errors.New("exact: no solution meets the target")

// ErrTruncated is returned when the search ran out of its node budget
// before finding any solution: unlike ErrNoSolution it asserts nothing
// about feasibility, only that the answer is unknown at this MaxNodes.
var ErrTruncated = errors.New("exact: node budget exhausted before any solution was found (feasibility unknown)")

const defaultMaxNodes = 1 << 20

// shared is the state all search workers see.  Immutable fields are set
// before any worker starts; mutable fields are atomics, or are guarded by
// mu (the incumbent witness and the first-interruption error).
type shared struct {
	c      *core.Compiled
	inst   *core.Instance
	ctx    context.Context
	tuples [][]duration.Tuple

	budget int64 // resource cap (-1: none)
	target int64 // makespan cap (-1: none)

	// minimizeResource selects the objective: resource value (true) or
	// makespan (false).
	minimizeResource bool
	stopAt           int64 // early-exit threshold for decision runs (-1: none)

	// floor is a global lower bound on the objective: in makespan mode the
	// makespan when every arc runs at its budget-feasible fastest duration
	// (set up front), in resource mode the min-flow value of the root
	// assignment (set by the root visit, before workers exist).  An
	// incumbent at the floor is provably optimal, so the search stops.
	floor atomic.Int64

	// budgetMin[e] is the fastest duration arc e can realize under any
	// flow of value at most budget (no arc can carry more than the whole
	// budget on a DAG); set in makespan mode only.  It feeds the subtree
	// prune in visit.
	budgetMin []int64

	maxNodes int64
	nodes    atomic.Int64
	stopped  atomic.Bool // node budget exhausted or context fired
	done     atomic.Bool // incumbent provably optimal (or stopAt reached)

	mu          sync.Mutex
	bestVal     atomic.Int64 // math.MaxInt64 until a solution is found
	found       atomic.Bool
	bestFlow    []int64 // guarded by mu
	interrupted error   // guarded by mu

	// progress mirrors Options.Progress; nil when nobody is listening.
	progress func(incumbent, bound float64, nodes int64)

	// Work-stealing scheduler state (parallel runs only).  dqs[i] is
	// worker i's Chase-Lev deque; pending counts live tasks (queued plus
	// executing) and reaching zero terminates hungry workers; hungry
	// counts workers currently hunting for work — the signal that makes
	// busy workers shed subtrees.
	dqs     []deque
	pending atomic.Int64
	hungry  atomic.Int32
}

// flowPool is where every search's branch-and-bound workers park their
// Dinic networks between solves, so back-to-back solves of
// topology-matched instances (a service's warm-started edits, benchmarks,
// the approximation-ratio harness) stop rebuilding networks per worker
// per solve.  Pooling never changes results (see flow.SolverPool).
var flowPool = flow.NewSolverPool()

func newShared(ctx context.Context, c *core.Compiled, opts *Options) *shared {
	if ctx == nil {
		ctx = context.Background()
	}
	// The per-arc breakpoint tables come straight off the compiled form:
	// they were derived once at Compile time instead of once per solve.
	sh := &shared{
		c:        c,
		inst:     c.Inst,
		ctx:      ctx,
		tuples:   c.Tuples,
		budget:   -1,
		target:   -1,
		stopAt:   -1,
		maxNodes: defaultMaxNodes,
	}
	sh.floor.Store(-1)
	sh.bestVal.Store(math.MaxInt64)
	if opts != nil && opts.MaxNodes > 0 {
		sh.maxNodes = int64(opts.MaxNodes)
	}
	if opts != nil {
		sh.progress = opts.Progress
	}
	return sh
}

// emitProgress delivers the current trajectory point to Options.Progress.
// Callers invoke it only on improvement events (a new floor, a better
// incumbent), never per node, so its cost is bounded by the number of
// improvements — at most the objective's value range — not by tree size.
func (sh *shared) emitProgress() {
	if sh.progress == nil {
		return
	}
	incumbent := float64(-1)
	if sh.found.Load() {
		incumbent = float64(sh.bestVal.Load())
	}
	var bound float64
	if f := sh.floor.Load(); f >= 0 {
		bound = float64(f)
	}
	sh.progress(incumbent, bound, sh.nodes.Load())
}

// seedIncumbent installs Options.Incumbent as the starting incumbent when
// it is a valid flow feasible for this solve's constraints.  Callers run
// it after the mode fields (budget, target, floor) are set and before the
// search starts.  Soundness: record only ever replaces the incumbent with
// strictly better solutions, so a seed can change which optimal witness a
// search reports and how many nodes it expands, never the optimal VALUE —
// and a seed that already meets the floor (or a decision run's stopAt)
// legitimately ends the search before a single node is expanded.
func (sh *shared) seedIncumbent(opts *Options) {
	if opts == nil || len(opts.Incumbent) == 0 {
		return
	}
	f := opts.Incumbent
	value, err := flow.Conserved(sh.inst.G, f, sh.inst.Source, sh.inst.Sink)
	if err != nil {
		return // not a flow on this instance: ignore the hint
	}
	if sh.budget >= 0 && value > sh.budget {
		return
	}
	makespan, err := sh.c.Makespan(f)
	if err != nil {
		return
	}
	if sh.minimizeResource {
		if sh.target >= 0 && makespan > sh.target {
			return
		}
		sh.record(value, f)
	} else {
		sh.record(makespan, f)
	}
}

// record offers a feasible objective value and its witness flow as the new
// incumbent.  It also raises the done flag when the value reaches the
// decision threshold or the global floor, at which point no descendant
// anywhere can do better.
func (sh *shared) record(value int64, edgeFlow []int64) {
	// Lock-free fast path: most visited nodes do not improve the
	// incumbent, and a non-improving value can never newly reach the
	// stopAt/floor thresholds (the smaller incumbent reached them first),
	// so skipping the mutex here loses nothing.  bestVal only decreases,
	// making a stale read conservative: it can only send us into the
	// locked path, which re-checks.
	if sh.found.Load() && value >= sh.bestVal.Load() {
		return
	}
	sh.install(value, edgeFlow)
	if (sh.stopAt >= 0 && value <= sh.stopAt) || (sh.floor.Load() >= 0 && value <= sh.floor.Load()) {
		sh.done.Store(true)
	}
}

// install makes value and edgeFlow the incumbent if value still improves
// on it.  The unlock is deferred because the Progress callback runs under
// mu: a callback that panics must not leave the other workers blocked on
// the lock.
func (sh *shared) install(value int64, edgeFlow []int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.found.Load() || value < sh.bestVal.Load() {
		sh.bestFlow = append(sh.bestFlow[:0], edgeFlow...)
		sh.bestVal.Store(value)
		sh.found.Store(true)
		// Emit inside the improvement branch, still under mu: delivered
		// incumbents are strictly decreasing even when several workers
		// improve concurrently.
		sh.emitProgress()
	}
}

func (sh *shared) setInterrupted(err error) {
	sh.mu.Lock()
	if sh.interrupted == nil {
		sh.interrupted = err
	}
	sh.mu.Unlock()
	sh.stopped.Store(true)
}

func (sh *shared) stats() Stats {
	sh.mu.Lock()
	interrupted := sh.interrupted
	sh.mu.Unlock()
	return Stats{
		Nodes:       int(sh.nodes.Load()),
		Complete:    !sh.stopped.Load(),
		Interrupted: interrupted,
	}
}

// worker is one search thread's private state: the current assignment, the
// hitting-set freeze marks, a reusable min-flow network, and scratch
// buffers so the hot path performs no allocation.  Workers are recycled
// through workerPool across solves, so the buffers only ever allocate the
// first time a size is seen.
type worker struct {
	sh     *shared
	level  []int
	frozen []bool
	mf     *flow.MinFlowSolver

	// dq is this worker's own work-stealing deque (nil in the sequential
	// search); self is its index into sh.dqs, where steals start.
	dq   *deque
	self int

	lb    []int64 // per-arc lower bounds of the current assignment
	durs  []int64 // per-arc assigned durations
	rdurs []int64 // per-arc realized durations under the min-flow
	et    []int64 // per-node event times
	path  []int   // critical-path walk buffer
	cand  []int   // branching candidates buffer

	// candStack pins each recursion level's candidates (w.cand is
	// overwritten by deeper visits); one backing array serves the whole
	// search, so expansion stays allocation-free once it has grown.
	candStack []int
}

// workerPool recycles worker scratch state across solves (the min-flow
// network is pooled separately through flowPool): with it, a solve's
// per-worker setup is a handful of slice header writes instead of seven
// allocations per worker, which is what kept the parallel benchmark's
// allocs/op from scaling with worker count.
var workerPool sync.Pool

// intSlice returns s resized to n and zeroed, reusing its backing array
// when it is big enough.
func intSlice(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func int64Slice(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func boolSlice(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

func newWorker(sh *shared) *worker {
	m := sh.inst.G.NumEdges()
	n := sh.inst.G.NumNodes()
	w, _ := workerPool.Get().(*worker)
	if w == nil {
		w = &worker{}
	}
	w.sh = sh
	w.mf = flowPool.Get(sh.inst.G, sh.inst.Source, sh.inst.Sink)
	w.dq = nil
	w.self = 0
	w.level = intSlice(w.level, m)
	w.frozen = boolSlice(w.frozen, m)
	w.lb = int64Slice(w.lb, m)
	w.durs = int64Slice(w.durs, m)
	w.rdurs = int64Slice(w.rdurs, m)
	w.et = int64Slice(w.et, n)
	w.path = w.path[:0]
	w.cand = w.cand[:0]
	w.candStack = w.candStack[:0]
	return w
}

// release parks the worker's network in the flow pool and the scratch
// state in workerPool for the next solve.  The worker must not be used
// afterwards.
func (w *worker) release() {
	flowPool.Put(w.mf)
	w.mf = nil
	w.sh = nil
	w.dq = nil
	workerPool.Put(w)
}

// candidates walks one critical path back from the sink (w.et must hold
// the event times of d) and collects, in source-to-sink order, the arcs on
// it that are neither frozen nor at their last breakpoint.
//
//rt:hotpath — per-node; appends reuse w.path and w.cand.
func (w *worker) candidates(d []int64) []int {
	c := w.sh.c
	w.path = w.path[:0]
	v := w.sh.inst.Sink
	for w.et[v] != 0 {
		pick := -1
		for i := c.InStart[v]; i < c.InStart[v+1]; i++ {
			e := int(c.InArcs[i])
			if w.et[c.ArcFrom[e]]+d[e] == w.et[v] {
				pick = e
				break
			}
		}
		if pick == -1 {
			panic("exact: inconsistent event times")
		}
		w.path = append(w.path, pick)
		v = int(c.ArcFrom[pick])
	}
	w.cand = w.cand[:0]
	for i := len(w.path) - 1; i >= 0; i-- {
		e := w.path[i]
		if !w.frozen[e] && w.level[e]+1 < len(w.sh.tuples[e]) {
			w.cand = append(w.cand, e)
		}
	}
	return w.cand
}

// visit expands the current node: it accounts the node, computes the
// assignment's min-flow, applies the sound prunes, records any solution,
// and returns the path-repair branching candidates.  ok=false means the
// subtree is closed (pruned, solved, or the search is stopping).  The
// returned slice aliases w.cand and is invalidated by the next visit.
//
//rt:hotpath — the per-node body of the branch-and-bound.
func (w *worker) visit() (candidates []int, ok bool) {
	sh := w.sh
	if sh.done.Load() || sh.stopped.Load() {
		return nil, false
	}
	if sh.nodes.Add(1) > sh.maxNodes {
		sh.stopped.Store(true)
		return nil, false
	}
	// Cancellation check: one ctx.Err() per node is cheap next to the
	// min-flow each node computes, and keeps interruption latency at a
	// single node expansion.
	if err := sh.ctx.Err(); err != nil {
		sh.setInterrupted(err)
		return nil, false
	}

	for e, l := range w.level {
		w.lb[e] = sh.tuples[e][l].R
	}
	res, err := w.mf.Solve(w.lb)
	if err != nil {
		// Lower bounds on a validated instance are always feasible; treat
		// a failure as a pruned branch but record nothing.
		return nil, false
	}
	if sh.minimizeResource {
		// The root assignment's min-flow value bounds every node's from
		// below (lower bounds only grow down the tree), so it is the
		// resource floor.  The root is visited first and alone, before the
		// pool starts, which makes this CAS effectively a write-once — and
		// the one-time bound-established progress event rides its success.
		if sh.floor.CompareAndSwap(-1, res.Value) {
			sh.emitProgress()
		}
	}
	if sh.budget >= 0 && res.Value > sh.budget {
		return nil, false
	}
	if sh.minimizeResource && res.Value >= sh.bestVal.Load() {
		return nil, false // resource usage only grows deeper in this subtree
	}

	for e, l := range w.level {
		w.durs[e] = sh.tuples[e][l].T
	}

	if sh.minimizeResource {
		if sh.c.LongestPath(w.durs, w.et) <= sh.target {
			sh.record(res.Value, res.EdgeFlow)
			return nil, false // deeper assignments only cost more resource
		}
	} else {
		// Record the realized solution: the min-flow may exceed some lower
		// bounds, so evaluate the true durations under it.
		for e, fn := range sh.inst.Fns {
			w.rdurs[e] = fn.Eval(res.EdgeFlow[e])
		}
		sh.record(sh.c.LongestPath(w.rdurs, w.et), res.EdgeFlow)
		if sh.done.Load() {
			return nil, false
		}
		// Subtree prune (audited): frozen arcs keep their assigned
		// duration, all others drop to their budget-feasible minimum
		// Eval(budget); prune when even that optimistic makespan cannot
		// beat the incumbent.
		//
		// This bound does NOT lower-bound the realized makespans inside
		// this subtree: a frozen arc's realized duration falls below its
		// assigned one whenever the min-flow overshoots its requirement,
		// which resource reuse over paths makes common.  The prune is
		// nevertheless sound for the search as a whole, by a coverage
		// argument: any realized flow f beating the bound must overshoot
		// some frozen arc past its next breakpoint, so the assignment
		// induced by f raises a frozen arc and lives in a sibling branch
		// of the hitting-set enumeration, not here.  Concretely, let f* be
		// an optimal flow and A* its induced assignment; on the unique
		// branch path toward A*, frozen arcs sit exactly at A*'s levels
		// and every arc's bound duration is at most its duration under A*
		// (frozen: equal; others: Eval(budget) <= t_e(f*_e) since
		// f*_e <= budget).  The bound there is therefore at most OPT, and
		// the prune can only fire once the incumbent already equals OPT -
		// the optimum is never lost.  The old bound dropped non-frozen
		// arcs to their unbudgeted minima, which is the same argument with
		// a needlessly weaker bound; the budget-feasible minima prune
		// strictly more.  TestMinMakespanMatchesAssignmentEnumeration
		// locks this against exhaustive assignment enumeration.
		for e := range w.rdurs {
			if w.frozen[e] {
				w.rdurs[e] = sh.tuples[e][w.level[e]].T
			} else {
				w.rdurs[e] = sh.budgetMin[e]
			}
		}
		if sh.c.LongestPath(w.rdurs, w.et) >= sh.bestVal.Load() {
			return nil, false // this subtree cannot beat the incumbent
		}
		sh.c.LongestPath(w.durs, w.et) // refill w.et for the critical-path walk
	}

	// Path repair: raise arcs on the current critical path.
	return w.candidates(w.durs), true
}

// expand runs the hitting-set loop over the candidates, recursing into
// each child.  In a parallel search it additionally SHEDS work on demand:
// whenever some worker is hungry and more than one sibling remains, the
// trailing siblings are materialized as frontier tasks on this worker's
// own deque (whence thieves steal them from the top) and only the current
// child is recursed into directly.  Shed tasks carry their own
// level/frozen snapshots with the hitting-set freeze marks applied, so
// the enumeration still visits every minimal repair exactly once no
// matter which worker runs which sibling.
func (w *worker) expand(candidates []int) {
	base := len(w.candStack)
	w.candStack = append(w.candStack, candidates...)
	n := len(candidates)
	own := n // siblings this worker still runs itself
	for i := 0; i < own; i++ {
		if w.dq != nil && i+1 < own && w.sh.hungry.Load() > 0 {
			w.shed(base, i, own)
			own = i + 1
		}
		// Index through w.candStack rather than a saved sub-slice: deeper
		// recursion may grow (and so move) the backing array.
		e := w.candStack[base+i]
		w.level[e]++
		w.recurse()
		w.level[e]--
		if w.sh.done.Load() || w.sh.stopped.Load() {
			break
		}
		w.frozen[e] = true
	}
	// Candidates are never frozen at entry, so unfreezing all of them
	// (including any the early break skipped, and the shed ones — which
	// were frozen only inside their task snapshots) restores the entry
	// state.
	for i := 0; i < n; i++ {
		w.frozen[w.candStack[base+i]] = false
	}
	w.candStack = w.candStack[:base]
}

// shed turns the siblings after position i (up to n, exclusive) into
// frontier tasks on this worker's deque.  Sibling j's subtree raises
// candidate j with candidates 0..j-1 frozen; w.frozen already carries the
// marks for 0..i-1, so each snapshot adds the marks for i..j-1 on top.
// pending is incremented before each push so a hungry worker can never
// observe a moment where live work exists but the count reads zero.
func (w *worker) shed(base, i, n int) {
	sh := w.sh
	for j := i + 1; j < n; j++ {
		tk := getTask(len(w.level))
		copy(tk.level, w.level)
		copy(tk.frozen, w.frozen)
		for k := i; k < j; k++ {
			tk.frozen[w.candStack[base+k]] = true
		}
		tk.level[w.candStack[base+j]]++
		sh.pending.Add(1)
		w.dq.push(tk)
	}
}

func (w *worker) recurse() {
	if cand, ok := w.visit(); ok && len(cand) > 0 {
		w.expand(cand)
	}
}

// task is a frontier node: an assignment plus freeze marks whose subtree
// is still unexplored.  Tasks are recycled through taskPool — the buffers
// are copied into the executing worker's state and returned to the pool
// before the subtree runs.
type task struct {
	level  []int
	frozen []bool
}

var taskPool sync.Pool

func getTask(m int) *task {
	tk, _ := taskPool.Get().(*task)
	if tk == nil {
		tk = &task{}
	}
	if cap(tk.level) < m {
		tk.level = make([]int, m)
		tk.frozen = make([]bool, m)
	}
	tk.level = tk.level[:m]
	tk.frozen = tk.frozen[:m]
	return tk
}

// loop is one parallel worker's scheduling loop: drain the own deque
// LIFO, then go hungry and steal FIFO from the others until either work
// turns up or no live task remains anywhere.
func (w *worker) loop() {
	sh := w.sh
	for {
		if sh.done.Load() || sh.stopped.Load() {
			return
		}
		tk := w.dq.pop()
		if tk == nil {
			tk = w.stealWork()
			if tk == nil {
				return
			}
		}
		copy(w.level, tk.level)
		copy(w.frozen, tk.frozen)
		taskPool.Put(tk)
		w.recurse()
		sh.pending.Add(-1)
	}
}

// stealWork hunts the other deques for a task, counting this worker as
// hungry while it looks (the signal that makes busy workers shed).  It
// returns nil when the search is over: every live task finished, or a
// stop flag fired.  The spin is cheap — a failed round is a few atomic
// loads per victim — and bounded, because executing workers either shed
// (feeding the thief) or finish (draining pending toward zero).
func (w *worker) stealWork() *task {
	sh := w.sh
	sh.hungry.Add(1)
	defer sh.hungry.Add(-1)
	for {
		if sh.done.Load() || sh.stopped.Load() || sh.pending.Load() == 0 {
			return nil
		}
		for i := 1; i < len(sh.dqs); i++ {
			if tk := sh.dqs[(w.self+i)%len(sh.dqs)].steal(); tk != nil {
				return tk
			}
		}
		runtime.Gosched()
	}
}

// run drives the search with the given worker-pool size.  The sequential
// search and the root visit run on the calling goroutine.  A panic in a
// worker goroutine is recovered there, stops the other workers, and is
// re-raised on the calling goroutine once the gang has joined, so it fails
// this solve instead of the process.
func (sh *shared) run(parallelism int) {
	par := parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if sh.done.Load() {
		return // a seeded incumbent already proved optimal
	}
	root := newWorker(sh)
	if par <= 1 {
		root.recurse()
		root.release()
		return
	}

	// Visit the root alone (it establishes the resource floor) and deal
	// its children round-robin across the workers' deques.  That is the
	// whole static split: from here on, demand-driven shedding and
	// stealing balance the tree however lopsided it turns out to be.
	cand, ok := root.visit()
	if !ok || len(cand) == 0 {
		root.release()
		return
	}
	sh.dqs = make([]deque, par)
	for i, e := range cand {
		tk := getTask(len(root.level))
		copy(tk.level, root.level)
		copy(tk.frozen, root.frozen)
		for _, prev := range cand[:i] {
			tk.frozen[prev] = true
		}
		tk.level[e]++
		sh.pending.Add(1)
		sh.dqs[i%par].push(tk)
	}
	root.release()

	var wg sync.WaitGroup
	faults := make(chan any, par)
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					faults <- r
					sh.stopped.Store(true)
				}
			}()
			w := newWorker(sh)
			w.dq = &sh.dqs[i]
			w.self = i
			w.loop()
			w.release()
		}(i)
	}
	wg.Wait()
	select {
	case r := <-faults:
		panic(r)
	default:
	}
}

func (sh *shared) solution() (core.Solution, Stats, error) {
	stats := sh.stats()
	if !sh.found.Load() {
		switch {
		case stats.Interrupted != nil:
			return core.Solution{}, stats, stats.Interrupted
		case !stats.Complete:
			return core.Solution{}, stats, ErrTruncated
		}
		return core.Solution{}, stats, ErrNoSolution
	}
	sol, err := sh.c.NewSolution(sh.bestFlow)
	if err != nil {
		return core.Solution{}, stats, fmt.Errorf("exact: internal solution invalid: %w", err)
	}
	return sol, stats, nil
}

// BudgetedMakespanLowerBound returns the makespan when every arc runs at
// the fastest duration any flow of value at most budget can give it.  On a
// DAG every unit of flow follows a source-to-sink path, so no arc can
// carry more than the whole budget; the bound is therefore sound for every
// feasible flow, and tighter than c.MinMakespan whenever the budget stops
// some arc short of its last breakpoint.
func BudgetedMakespanLowerBound(c *core.Compiled, budget int64) int64 {
	return c.LongestPath(budgetMinDurations(c, budget), make([]int64, len(c.Topo)))
}

// budgetMinDurations returns, per arc, the fastest duration a flow of
// value at most budget can give it.
func budgetMinDurations(c *core.Compiled, budget int64) []int64 {
	d := make([]int64, len(c.MinDur))
	for e, fn := range c.Inst.Fns {
		d[e] = fn.Eval(budget)
	}
	return d
}

// ResourceLowerBound returns a lower bound on the resource usage of every
// flow whose makespan is at most target.  For each arc e, the longest
// source-to-sink path through e with every *other* arc at its fastest
// duration must still fit in the target, which caps e's duration and hence
// floors its flow at the cheapest breakpoint meeting that cap; the minimum
// flow satisfying all those per-arc floors bounds OPT from below.  With a
// generous target every floor is the first breakpoint (R = 0) and the
// bound degenerates to the trivial min-flow at all-minimum levels.
func ResourceLowerBound(c *core.Compiled, target int64) int64 {
	n := len(c.Topo)
	tf, tb := make([]int64, n), make([]int64, n)
	c.LongestPath(c.MinDur, tf)
	c.ReverseLongestPath(c.MinDur, tb)
	lower := make([]int64, len(c.Tuples))
	for e, tuples := range c.Tuples {
		slack := target - tf[c.ArcFrom[e]] - tb[c.ArcTo[e]]
		// The tuples are sorted by strictly decreasing T, so the first one
		// fitting the slack has the minimal requirement.
		r := tuples[len(tuples)-1].R // unreachable target: fastest level (still sound)
		for _, tp := range tuples {
			if tp.T <= slack {
				r = tp.R
				break
			}
		}
		lower[e] = r
	}
	inst := c.Inst
	res, err := flow.MinFlow(inst.G, lower, inst.Source, inst.Sink)
	if err != nil {
		return 0 // malformed bounds cannot happen on a validated instance
	}
	return res.Value
}

// MinMakespan finds an optimal flow of value at most budget minimizing the
// makespan.  Callers solving the same instance repeatedly compile it once
// and pass the shared compiled form.  When ctx is canceled or its deadline
// fires, the search stops after the current node and the best solution
// found so far is returned with Stats{Complete: false, Interrupted:
// ctx.Err()}; if no solution was found yet, the context error itself is
// returned.
func MinMakespan(ctx context.Context, c *core.Compiled, budget int64, opts *Options) (core.Solution, Stats, error) {
	if budget < 0 {
		return core.Solution{}, Stats{}, fmt.Errorf("exact: negative budget %d", budget)
	}
	sh := newShared(ctx, c, opts)
	sh.budget = budget
	sh.minimizeResource = false
	sh.budgetMin = budgetMinDurations(c, budget)
	sh.floor.Store(c.LongestPath(sh.budgetMin, make([]int64, len(c.Topo))))
	sh.emitProgress() // bound established, before any incumbent exists
	sh.seedIncumbent(opts)
	sh.run(optParallelism(opts))
	return sh.solution()
}

// MinResource finds a flow of minimum value whose makespan is at most
// target.  It returns ErrNoSolution if the target is unreachable; see
// MinMakespan for the interruption contract.
func MinResource(ctx context.Context, c *core.Compiled, target int64, opts *Options) (core.Solution, Stats, error) {
	if target < c.MinMakespan {
		return core.Solution{}, Stats{Complete: true}, ErrNoSolution
	}
	sh := newShared(ctx, c, opts)
	sh.target = target
	sh.minimizeResource = true
	sh.seedIncumbent(opts)
	sh.run(optParallelism(opts))
	return sh.solution()
}

// Feasible decides whether some flow of value at most budget achieves
// makespan at most target; when it does, a witness solution is returned.
// Its answer is three-valued: (true, nil) proves feasibility with a
// witness, (false, nil) proves infeasibility, and an interrupted or
// node-capped run that proved neither returns false together with the
// context error or ErrTruncated, so callers cannot mistake "ran out of
// time" for "proven infeasible".
func Feasible(ctx context.Context, c *core.Compiled, budget, target int64, opts *Options) (bool, core.Solution, Stats, error) {
	if target < c.MinMakespan {
		return false, core.Solution{}, Stats{Complete: true}, nil
	}
	sh := newShared(ctx, c, opts)
	sh.target = target
	sh.budget = budget
	sh.minimizeResource = true
	sh.stopAt = budget
	sh.seedIncumbent(opts)
	sh.run(optParallelism(opts))
	stats := sh.stats()
	if sh.found.Load() && sh.bestVal.Load() <= budget {
		sol, err := sh.c.NewSolution(sh.bestFlow)
		if err != nil {
			return false, core.Solution{}, stats, err
		}
		return true, sol, stats, nil
	}
	if stats.Interrupted != nil {
		return false, core.Solution{}, stats, stats.Interrupted
	}
	if !stats.Complete {
		return false, core.Solution{}, stats, ErrTruncated
	}
	return false, core.Solution{}, stats, nil
}

func optParallelism(opts *Options) int {
	if opts == nil {
		return 0
	}
	return opts.Parallelism
}
