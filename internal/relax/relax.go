// Package relax is the scale tier's relaxation engine: it solves the
// makespan relaxation of Section 3.1 (LP 6-10) on instances far beyond the
// reach of the dense simplex in internal/lp, and rounds the fractional
// solution with the Theorem 3.4 threshold rule.
//
// Instead of materializing the two-tuple expansion D” and handing a dense
// tableau to simplex - O((m+n)^2) memory, hopeless past a few hundred arcs -
// it works directly on the original instance with the per-arc LOWER CONVEX
// ENVELOPE of the duration breakpoints.  Filling the expansion's parallel
// chains in slope order is exactly linear interpolation along that
// envelope, so
//
//	phi(f) = longest path under envelope durations d^_e(f_e)
//
// minimized over fractional flows of value at most B is a sound relaxation
// (the envelope minorizes the step function pointwise, so no integral flow
// can beat it), and phi is convex in f (a maximum over paths of sums of
// convex per-arc functions).  The envelope model forces the canonical
// chain-filling order of Lemma 3.1, so its optimum is at least the
// expansion LP's - the certified bounds here are never weaker than the
// dense LP's, and are often strictly tighter.  The minimization runs as
// Frank-Wolfe:
//
//   - the subgradient of phi at f is the envelope slope on the arcs of one
//     critical path (zero elsewhere);
//   - the linear minimization oracle over the flow polytope {value <= B,
//     f >= 0} is a single min-cost source-to-sink path under those
//     (non-positive) slopes - O(m) on a DAG by topological sweep;
//   - every iterate certifies a LOWER bound on the relaxation optimum via
//     convexity: phi(f) + min_y <g, y - f> <= relax* <= OPT, so the reported
//     bound is sound even when the (non-smooth) iteration stalls.
//
// The iteration ends at the first of four stops, recorded in Result.Stop:
// the duality gap closes to the tolerance (StopGap); the oracle finds no
// descent direction (StopOracle); two checkpoints stallEvery iterations
// apart show neither bound moving (StopStall); or the size-scaled
// iteration cap runs out (StopCap).  Each stop only cuts a deterministic
// trajectory short: the reported bounds are those of iterates the solve
// visited, and rounding starts from the best of them.
//
// # Execution model
//
// All O(m) inner work - the makespan sweep, the line-search probes and the
// linear oracle - runs on the solving goroutine as pull-based DP over
// core.Levels' slot schedule: node p's value is a pure function of its
// in-slots, durations and oracle costs live in slot-indexed arrays, and
// the sweep walks three sequential arrays front to back.  These float
// sweeps are kept apart from the integral longest-path kernel
// (core.Compiled.LongestPath) on purpose: envelope durations are
// fractional and slot-indexed, and folding them into the int64 CSR kernel
// would make the shared code branch on its caller.  Envelope evaluations
// are SUPPORT-SPARSE: the slot-duration array always reflects the current
// iterate, a line-search probe re-evaluates only the arcs whose flow the
// probe actually changes (the iterate's support plus the oracle path) and
// restores them afterwards, so a probe costs O(support + sweep) instead of
// O(m) envelope evaluations.
//
// A Solver is built once per instance and reuses all scratch - flow
// vectors, duration and event-time buffers, oracle DP arrays, and the
// integral flow.MinFlowSolver used by rounding - across solves, the same
// per-worker state-reuse pattern as the branch-and-bound's MinFlowSolver:
// give each worker its own Solver; one Solver is not safe for concurrent
// use.
package relax

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/flow"
)

// Options tunes one relaxation solve.
type Options struct {
	// Alpha is the Theorem 3.4 threshold-rounding parameter in (0,1); the
	// rounded solution has makespan <= RelaxValue/Alpha using at most
	// B/(1-Alpha) resources.  Zero means the 0.5 default.
	Alpha float64
	// WarmFlow optionally seeds the Frank-Wolfe iteration with a starting
	// point (typically a stored neighbor's integral solution).  A valid
	// conserved flow is scaled into the budget if it overspends and used
	// as the first iterate; anything else is ignored and the iteration
	// starts from zero as before.  Warm starts are sound by construction:
	// every lower-bound certificate is recomputed from the current
	// iterate's own subgradients (phi is convex at EVERY feasible point,
	// not just along the cold trajectory), so a warm start can change how
	// fast the gap closes and which fractional point gets rounded — both
	// within the certified envelope — but never the validity of the
	// reported bounds.
	WarmFlow []int64
	// Progress, when non-nil, receives the Frank-Wolfe anytime trajectory
	// during budget-mode solves: the best relaxation objective so far
	// (decreasing) and the best certified lower bound so far (increasing),
	// plus the iteration count.  Events are rate-limited to a fixed number
	// per solve and delivered only when the pair actually improved, from
	// the solving goroutine.  MinResource's binary-search probes stay
	// silent: their per-budget trajectories would interleave
	// non-monotonically.  Purely observational: it never steers the
	// iteration.
	Progress func(objective, bound float64, iters int64)

	// maxIters caps Frank-Wolfe iterations; 0 picks a default scaled to
	// the instance so large solves stay in the "seconds" regime.
	// MinResource lowers it for its probes.
	maxIters int
	// tol is the relative duality-gap stopping tolerance; 0 means 1%.
	tol float64
}

func (o Options) withDefaults(m int) Options {
	if o.Alpha == 0 {
		o.Alpha = 0.5
	}
	if o.tol == 0 {
		o.tol = 0.01
	}
	if o.maxIters == 0 {
		// Budget roughly constant total work (~20e6 arc-touches for the
		// Frank-Wolfe loop): 50k-arc instances get a few hundred
		// iterations and stay in the seconds regime, and instances below
		// about 8,300 arcs get 2,400.  Easy instances close the duality
		// gap long before the cap; on the rest (a ~130-arc layered DAG
		// with a budget of 20-60 among them) the gap never closes and the
		// stall stop ends the solve.
		o.maxIters = 20_000_000 / (m + 1)
		if o.maxIters > 2400 {
			o.maxIters = 2400
		}
		if o.maxIters < 96 {
			o.maxIters = 96
		}
	}
	return o
}

// Result is the outcome of one relaxation solve plus rounding.
type Result struct {
	// Sol is the rounded integral solution on the original instance.
	Sol core.Solution
	// RelaxValue is the best relaxation objective reached (an upper bound
	// on the relaxation optimum); the rounded makespan is at most
	// RelaxValue/Alpha.
	RelaxValue float64
	// LowerBound is the certified lower bound on the optimal makespan
	// (budget mode) or optimal resource usage (target mode): the best of
	// the Frank-Wolfe duality certificate and the combinatorial
	// budget-floor bound.  It is sound regardless of convergence and
	// positive whenever the optimum is.
	LowerBound float64
	// Iters counts Frank-Wolfe iterations actually run.
	Iters int
	// Stop names what ended the Frank-Wolfe solve behind RelaxValue (in
	// target mode, the full-strength re-solve at the chosen budget).  A
	// canceled solve reports its context error instead.
	Stop Stop
}

// Stop names the rule that ended a Frank-Wolfe solve.
type Stop string

// Frank-Wolfe stop rules.
const (
	// StopNone: no Frank-Wolfe solve ran to a stop (target mode answered
	// with the saturation flow, or the solve was canceled).
	StopNone Stop = ""
	// StopGap: the duality gap closed to within the tolerance.
	StopGap Stop = "gap"
	// StopOracle: the linear oracle found no descent direction (c* >= 0),
	// so the iterate is optimal.
	StopOracle Stop = "oracle"
	// StopStall: neither the objective nor the certificate moved enough
	// between two stall checkpoints.
	StopStall Stop = "stall"
	// StopCap: the iteration cap ran out.
	StopCap Stop = "cap"
)

// The stall stop.  On non-smooth objectives Frank-Wolfe's certificate
// flattens out long before the duality gap closes, and past that point
// further iterations only polish an objective the rounding barely sees.
// Every stallEvery iterations the loop takes a checkpoint of (bestObj,
// bestLB); from the second checkpoint on it stops when, since the
// previous one, the certificate rose by less than stallLBRise of
// max(prevLB, 1) and the objective fell by less than stallObjFall of
// prevObj.  The first possible stop is iteration 2*stallEvery.
const (
	stallEvery   = 200
	stallLBRise  = 1e-3
	stallObjFall = 1e-2
)

// Solver solves the envelope relaxation on one fixed instance repeatedly,
// reusing all scratch buffers across solves.  Not safe for concurrent use;
// give each worker its own.
type Solver struct {
	c    *core.Compiled
	inst *core.Instance

	// env is the per-arc lower convex envelope in CSR form, shared with
	// (and built at most once by) the compiled instance.
	env *core.Envelopes
	// lv is the level decomposition and pull-sweep slot schedule, shared
	// with the compiled instance.
	lv *core.Levels

	srcPos, snkPos int32

	// Slot-indexed state (see core.Levels): durations of the CURRENT
	// iterate, the zero-flow base durations, and the oracle cost arrays.
	durSlot     []float64
	d0Slot      []float64
	costSlot    []float64
	avgCostSlot []float64

	// Arc-indexed saturation thresholds: flow at or beyond satR[e] pins
	// the envelope duration to satD[e] (the last hull point, slope 0).
	// Probes use them to skip envelope evaluation entirely on saturated
	// arcs — under large budgets that is most of the support.
	satR []float64
	satD []float64

	// Position-indexed DP state.
	tval     []float64 // makespan sweep event times
	dist     []float64 // oracle sweep distances
	critSlot []int32   // argmax slot per position (makespan)
	oraSlot  []int32   // argmin slot per position (oracle)

	// Arc-indexed iterate state.
	f, fbest []float64 // current / best flows
	inSupp   []bool    // f[e] > 0
	req      []int64   // rounded per-arc lower bounds

	// Sparse scratch.
	supp      []int32   // arcs with positive flow, insertion order
	pathBuf   []int32   // critical-path arcs
	oraPath   []int32   // oracle-direction path arcs
	touchSlot []int32   // slots a probe modified
	savedDur  []float64 // their pre-probe durations

	dropEps  float64 // flows at or below this are snapped to zero
	lastRung int     // previous accepted line-search rung, seeds the next walk

	mf *flow.MinFlowSolver
}

// NewSolver builds the reusable relaxation state on a compiled instance:
// the level schedule and duration envelopes come from the compiled form
// (derived once, shared with every other consumer), and only the
// Frank-Wolfe scratch and the integral min-flow network used by rounding
// are allocated here.
func NewSolver(c *core.Compiled) *Solver {
	inst := c.Inst
	g := inst.G
	n, m := g.NumNodes(), g.NumEdges()
	s := &Solver{
		c:           c,
		inst:        inst,
		env:         c.Envelopes(),
		lv:          c.Levels(),
		durSlot:     make([]float64, m),
		d0Slot:      make([]float64, m),
		costSlot:    make([]float64, m),
		avgCostSlot: make([]float64, m),
		tval:        make([]float64, n),
		dist:        make([]float64, n),
		critSlot:    make([]int32, n),
		oraSlot:     make([]int32, n),
		satR:        make([]float64, m),
		satD:        make([]float64, m),
		f:           make([]float64, m),
		fbest:       make([]float64, m),
		inSupp:      make([]bool, m),
		req:         make([]int64, m),
		mf:          flow.NewMinFlowSolver(g, inst.Source, inst.Sink),
	}
	s.srcPos = s.lv.Pos[inst.Source]
	s.snkPos = s.lv.Pos[inst.Sink]
	for sl := 0; sl < m; sl++ {
		d, _ := s.env.Eval(int(s.lv.SlotArc[sl]), 0)
		s.d0Slot[sl] = d
	}
	for e := 0; e < m; e++ {
		last := int(s.env.SegStart[e+1]) - 1
		s.satR[e] = float64(s.env.R[last])
		s.satD[e] = float64(s.env.T[last])
	}
	return s
}

// sweepMakespan computes the longest-path value under the current slot
// durations by the pull-based DP over positions (a topological order):
// each position's event time is the max over its in-slots of tail time
// plus slot duration, with the FIRST slot achieving the max recorded in
// critSlot for critical-path backtracking (the deterministic tie-break).
//
//rt:hotpath — the inner sweep kernel, every probe and iteration.
func (s *Solver) sweepMakespan() float64 {
	slotStart, slotFrom := s.lv.SlotStart, s.lv.SlotFrom
	tval := s.tval
	dur := s.durSlot
	crit := s.critSlot
	for p := int32(0); p < int32(len(tval)); p++ {
		best := 0.0
		bs := int32(-1)
		for sl := slotStart[p]; sl < slotStart[p+1]; sl++ {
			if cand := tval[slotFrom[sl]] + dur[sl]; cand > best {
				best = cand
				bs = sl
			}
		}
		tval[p] = best
		crit[p] = bs
	}
	return tval[s.snkPos]
}

// sweepOracle solves the linear minimization min <cost, y> over the flow
// polytope {y >= 0, value(y) <= B}: route all B units along the single
// min-cost source-to-sink path, or route nothing if even the best path
// costs >= 0.  It returns the best path cost c* (<= 0); the chosen path is
// left in oraSlot predecessors.  The pull-based DP is the dual of
// sweepMakespan: min over in-slots with the first minimizing slot
// recorded, source pinned to distance 0.
//
//rt:hotpath — the inner oracle kernel.
func (s *Solver) sweepOracle(cost []float64) float64 {
	slotStart, slotFrom := s.lv.SlotStart, s.lv.SlotFrom
	dist := s.dist
	ora := s.oraSlot
	for p := int32(0); p < int32(len(dist)); p++ {
		best := math.Inf(1)
		bs := int32(-1)
		for sl := slotStart[p]; sl < slotStart[p+1]; sl++ {
			if cand := dist[slotFrom[sl]] + cost[sl]; cand < best {
				best = cand
				bs = sl
			}
		}
		if p == s.srcPos && best > 0 {
			// The source starts at distance 0; its in-slots (if any) come
			// from nodes unreachable from it, hence +Inf.
			best = 0
			bs = -1
		}
		dist[p] = best
		ora[p] = bs
	}
	return dist[s.snkPos]
}

// criticalPath appends the arcs of one critical path (sink to source) to
// pathBuf, using the argmax slots recorded by the last tracked sweep.
//
//rt:hotpath — per-iteration; the append reuses s.pathBuf.
func (s *Solver) criticalPath() []int32 {
	s.pathBuf = s.pathBuf[:0]
	lv := s.lv
	p := s.snkPos
	for p != s.srcPos {
		sl := s.critSlot[p]
		if sl < 0 {
			// The sink is reached by a zero-duration prefix the DP never
			// tightened; walk the first incoming slot (durations there are
			// 0 on this path, so the subgradient contribution is
			// unaffected).
			if lv.SlotStart[p] == lv.SlotStart[p+1] {
				break // defensive: a source that is not the source
			}
			sl = lv.SlotStart[p]
		}
		s.pathBuf = append(s.pathBuf, lv.SlotArc[sl])
		p = lv.SlotFrom[sl]
	}
	return s.pathBuf
}

// materializeOraclePath copies the oracle's chosen source-to-sink path out
// of the oraSlot predecessors into oraPath (arc ids, sink to source).
// Valid only after sweepOracle returned a finite cost.
func (s *Solver) materializeOraclePath() {
	s.oraPath = s.oraPath[:0]
	lv := s.lv
	p := s.snkPos
	for p != s.srcPos {
		sl := s.oraSlot[p]
		if sl < 0 {
			break
		}
		s.oraPath = append(s.oraPath, lv.SlotArc[sl])
		p = lv.SlotFrom[sl]
	}
}

// probe evaluates phi((1-gamma) f + gamma * B * 1_oraPath) support-
// sparsely: only the arcs whose flow the probe changes (the support and
// the oracle path) get their slot durations re-evaluated, the pure-DP
// sweep runs, and the touched slots are restored in reverse so duplicate
// touches (support arcs on the path) unwind to the original value.
//
//rt:hotpath — the line-search inner loop; appends reuse solver scratch.
func (s *Solver) probe(gamma, B float64) float64 {
	lv := s.lv
	env := s.env
	s.touchSlot = s.touchSlot[:0]
	s.savedDur = s.savedDur[:0]
	om := 1 - gamma
	for _, e := range s.supp {
		x := om * s.f[e]
		if x >= s.satR[e] {
			// Still saturated after scaling: the current duration is
			// already satD (f[e] >= x >= satR), nothing to touch.
			continue
		}
		sl := lv.ArcSlot[e]
		d, _ := env.Eval(int(e), x)
		s.touchSlot = append(s.touchSlot, sl)
		s.savedDur = append(s.savedDur, s.durSlot[sl])
		s.durSlot[sl] = d
	}
	gb := gamma * B
	for _, e := range s.oraPath {
		sl := lv.ArcSlot[e]
		d, _ := env.Eval(int(e), om*s.f[e]+gb)
		s.touchSlot = append(s.touchSlot, sl)
		s.savedDur = append(s.savedDur, s.durSlot[sl])
		s.durSlot[sl] = d
	}
	phi := s.sweepMakespan()
	for i := len(s.touchSlot) - 1; i >= 0; i-- {
		s.durSlot[s.touchSlot[i]] = s.savedDur[i]
	}
	return phi
}

// step commits the iterate update f <- (1-gamma) f + gamma * B * 1_oraPath:
// the support is scaled (and pruned where flow decays to nothing), the
// oracle path is added, and the slot durations are re-evaluated on exactly
// the changed arcs so durSlot always reflects the current iterate.
func (s *Solver) step(gamma, B float64) {
	lv := s.lv
	env := s.env
	om := 1 - gamma
	keep := s.supp[:0]
	for _, e := range s.supp {
		nf := s.f[e] * om
		if nf > s.dropEps && nf >= s.satR[e] {
			// Saturated before and after: duration already satD.
			s.f[e] = nf
			keep = append(keep, e)
			continue
		}
		sl := lv.ArcSlot[e]
		if nf <= s.dropEps {
			s.f[e] = 0
			s.inSupp[e] = false
			s.durSlot[sl] = s.d0Slot[sl]
			continue
		}
		s.f[e] = nf
		d, _ := env.Eval(int(e), nf)
		s.durSlot[sl] = d
		keep = append(keep, e)
	}
	s.supp = keep
	gb := gamma * B
	for _, e := range s.oraPath {
		nf := s.f[e] + gb
		if nf <= s.dropEps {
			continue // zero-budget direction adds nothing
		}
		s.f[e] = nf
		if !s.inSupp[e] {
			s.inSupp[e] = true
			s.supp = append(s.supp, e)
		}
		d, _ := env.Eval(int(e), nf)
		s.durSlot[lv.ArcSlot[e]] = d
	}
}

// MinMakespan solves the envelope relaxation under the resource budget and
// rounds the best fractional flow to an integral solution.  The returned
// Result carries the certified relaxation lower bound: a sound lower bound
// on the optimal makespan at this budget.
func (s *Solver) MinMakespan(ctx context.Context, budget int64, opt Options) (*Result, error) {
	if budget < 0 {
		return nil, fmt.Errorf("relax: negative budget %d", budget)
	}
	o := opt.withDefaults(s.inst.G.NumEdges())
	if o.Alpha <= 0 || o.Alpha >= 1 {
		return nil, fmt.Errorf("relax: alpha %v outside (0,1)", o.Alpha)
	}
	res := &Result{}
	ferr := s.frankWolfe(ctx, budget, o, res)
	if ferr != nil && res.Iters == 0 {
		// Canceled before the first iterate: nothing to round.
		return nil, ferr
	}
	// The duality certificate needs the iteration to get close before it
	// is tight; the combinatorial floor (every arc at its budget-best
	// duration - sound because on a DAG no arc can carry more than the
	// whole budget) is free, always positive when the optimum is, and
	// often the better bound early.  Report the max of the two.
	if floor := float64(exact.BudgetedMakespanLowerBound(s.c, budget)); floor > res.LowerBound {
		res.LowerBound = floor
	}
	sol, err := s.round(budget, o.Alpha)
	if err != nil {
		return nil, err
	}
	res.Sol = sol
	// An interrupted iteration still rounds its best iterate: the caller
	// gets a usable (if less converged) solution alongside the context
	// error, mirroring the exact search's partial-report contract.
	return res, ferr
}

// frankWolfe runs the Frank-Wolfe loop at the given budget, leaving the
// best fractional flow in s.fbest and filling res's relaxation fields.
func (s *Solver) frankWolfe(ctx context.Context, budget int64, o Options, res *Result) error {
	m := s.inst.G.NumEdges()
	B := float64(budget)
	s.dropEps = 1e-12 * B
	// Seed the line-search ladder afresh: results must not depend on what
	// this (reusable) solver ran before.
	s.lastRung = 2

	// Reset the iterate: zero flows, base durations, clean cost arrays.
	for e := 0; e < m; e++ {
		s.f[e] = 0
		s.fbest[e] = 0
		s.costSlot[e] = 0
		s.avgCostSlot[e] = 0
		s.inSupp[e] = false
	}
	copy(s.durSlot, s.d0Slot)
	s.supp = s.supp[:0]
	s.oraPath = s.oraPath[:0]
	s.seedWarm(budget, o)
	for e := 0; e < m; e++ {
		if s.f[e] > 0 {
			s.inSupp[e] = true
			s.supp = append(s.supp, int32(e))
			d, _ := s.env.Eval(e, s.f[e])
			s.durSlot[s.lv.ArcSlot[e]] = d
		}
	}

	bestObj := math.Inf(1)
	bestLB := 0.0
	// Progress throttle: early iterations improve the objective almost
	// every step, so cap delivery at ~64 events per solve and skip events
	// that would repeat an already-sent (objective, bound) pair.
	emitEvery := o.maxIters / 64
	if emitEvery < 1 {
		emitEvery = 1
	}
	lastEmit := -emitEvery
	sentObj, sentLB := math.Inf(1), math.Inf(-1)
	emit := func(iters int) {
		if o.Progress == nil || math.IsInf(bestObj, 1) {
			return
		}
		if bestObj < sentObj || bestLB > sentLB {
			o.Progress(bestObj, bestLB, int64(iters))
			sentObj, sentLB = bestObj, bestLB
		}
	}
	// constSum and wSum accumulate the weighted minorant constants
	// sum_k w_k (phi(f_k) - <g_k, f_k>) and sum_k w_k for the averaged
	// certificate below.
	constSum := 0.0
	wSum := 0.0
	// The previous stall checkpoint; none is taken before iteration
	// stallEvery.
	prevObj, prevLB := math.Inf(1), math.Inf(-1)

	ended := StopCap
	for k := 0; k < o.maxIters; k++ {
		if k&7 == 0 {
			if err := ctx.Err(); err != nil {
				if !math.IsInf(bestObj, 1) {
					res.Iters = k
					res.RelaxValue = bestObj
					res.LowerBound = bestLB
				}
				emit(k) // final trajectory point of an interrupted solve
				return err
			}
		}
		phi := s.sweepMakespan()
		if phi < bestObj {
			bestObj = phi
			copy(s.fbest, s.f)
		}

		// Subgradient: envelope slopes on one critical path, zero
		// elsewhere.  costSlot is all-zero outside the path (restored at
		// the end of each iteration), so only path slots are touched.
		path := s.criticalPath()
		w := float64(k + 1) // later minorants weigh more, see below
		gdotf := 0.0
		for _, e := range path {
			_, gr := s.env.Eval(int(e), s.f[e])
			sl := s.lv.ArcSlot[e]
			s.costSlot[sl] = gr
			s.avgCostSlot[sl] += w * gr
			gdotf += gr * s.f[e]
		}
		constSum += w * (phi - gdotf)
		wSum += w

		// Certified bound, averaged form: any convex combination of the
		// per-iterate affine minorants phi(f_k) + <g_k, y-f_k> is itself a
		// minorant of phi, and its averaged costs mix MANY critical paths,
		// so no single steep path can collapse the bound - this is what
		// closes the gap on plateaued makespans (wide DAGs, k-way jobs).
		// Weights w_k = k+1 favor the later (near-optimal) iterates over
		// the early wild ones, which closes the certificate in far fewer
		// iterations than the uniform average.  The oracle is linear in
		// the costs, so the weighted running sums work unscaled:
		// LB = (constSum + B * c*(sum w_k g_k)) / wSum.
		if lb := (constSum + B*s.sweepOracle(s.avgCostSlot)) / wSum; lb > bestLB {
			bestLB = lb
		}
		// Per-iterate form: phi(y) >= phi(f) + <g, y-f> for every feasible
		// y, so phi(f) - <g,f> + B*c* is also a sound bound.  This oracle
		// call runs LAST: it leaves the Frank-Wolfe step direction in
		// oraSlot for the line search below.
		cstar := s.sweepOracle(s.costSlot)
		if lb := phi - gdotf + B*cstar; lb > bestLB {
			bestLB = lb
		}
		gapOK := bestObj-bestLB <= o.tol*math.Max(bestLB, 1)
		if k-lastEmit >= emitEvery {
			emit(k + 1)
			lastEmit = k
		}

		stop := StopNone
		switch {
		case gapOK:
			stop = StopGap
		case cstar >= 0:
			stop = StopOracle
		case (k+1)%stallEvery == 0:
			if bestLB-prevLB < stallLBRise*math.Max(prevLB, 1) &&
				prevObj-bestObj < stallObjFall*prevObj {
				stop = StopStall
			}
			prevObj, prevLB = bestObj, bestLB
		}
		if stop != StopNone {
			for _, e := range path {
				s.costSlot[s.lv.ArcSlot[e]] = 0
			}
			res.Iters = k + 1
			ended = stop
			break
		}

		// Direction s_k: B units along the oracle path (sparse), i.e.
		// f(gamma) = (1-gamma) f + gamma * B * 1_path.
		s.materializeOraclePath()
		gamma := s.lineSearch(B, k, phi)
		s.step(gamma, B)
		for _, e := range path {
			s.costSlot[s.lv.ArcSlot[e]] = 0
		}
		res.Iters = k + 1
	}
	if math.IsInf(bestObj, 1) { // maxIters == 0 cannot happen, but stay safe
		bestObj = s.sweepMakespan()
		copy(s.fbest, s.f)
	}
	res.RelaxValue = bestObj
	res.LowerBound = bestLB
	res.Stop = ended
	emit(res.Iters) // final trajectory point, whatever the throttle skipped
	return nil
}

// seedWarm overwrites the zero starting point with Options.WarmFlow when
// it is a conserved non-negative flow on this instance, scaling it
// uniformly into the budget if it overspends (uniform scaling preserves
// conservation, so the seed stays inside the polytope {f >= 0, value <=
// B}).  An invalid seed is ignored.  The first iteration evaluates
// phi(seed) and takes it as the initial best iterate, so a seed near the
// new optimum closes the duality gap in a handful of iterations.
func (s *Solver) seedWarm(budget int64, o Options) {
	wf := o.WarmFlow
	m := s.inst.G.NumEdges()
	if len(wf) != m {
		return
	}
	value, err := flow.Conserved(s.inst.G, wf, s.inst.Source, s.inst.Sink)
	if err != nil {
		return
	}
	scale := 1.0
	if value > budget {
		if value <= 0 {
			return
		}
		scale = float64(budget) / float64(value)
	}
	for e := 0; e < m; e++ {
		s.f[e] = float64(wf[e]) * scale
	}
}

// The line search picks steps from a fixed geometric ladder of rungs
// gamma_j = invPhi^j, j in [0, lineSearchMaxRung].  Two deliberate choices:
//
//   - QUANTIZED, FLOORED steps.  phi is a max over paths, and Frank-Wolfe
//     with an exact line minimum zigzags on such non-smooth objectives:
//     the true per-iteration line minimizer shrinks toward zero and the
//     objective crawls.  Keeping the step on a coarse grid with a floor
//     (invPhi^9 ~ 0.008) acts as step-size regularization - each iteration
//     moves real mass onto its path, and descent comes from the SEQUENCE
//     of paths, not from polishing one step.  The floor matches the
//     resolution the former 8-deep golden-section bracketing of [0, 1]
//     could reach, which converged well across the corpus.
//   - WARM-STARTED walk.  Accepted steps drift slowly (geometrically
//     shrinking as the iterate converges), so the search starts at the
//     previously accepted rung, decides a direction by probing one finer
//     rung, and walks while the value improves.  Typically 2-3 probes per
//     iteration against 10 for bracketing from scratch; probes are the
//     dominant per-iteration cost, so this is the difference between ~13
//     and ~6 sweeps per iteration.
const (
	lineSearchMaxRung   = 9  // finest rung: invPhi^9 ~ 0.008
	lineSearchMaxProbes = 10 // safety cap on one search's probe spend
)

// lineSearch approximately minimizes phi((1-gamma) f + gamma * B * 1_path)
// over the rung ladder above, returning the best probed rung.  phi0 is the
// already-computed value at gamma = 0.  If no probe strictly improves on it
// the search falls back to the classic 2/(k+2) step, which lets the
// iteration slide past subgradient kinks.
func (s *Solver) lineSearch(B float64, k int, phi0 float64) float64 {
	const invPhi = 0.6180339887498949
	rung := func(j int) float64 { return math.Pow(invPhi, float64(j)) }
	bestG, bestV := 0.0, phi0
	probes := 0
	eval := func(g float64) float64 {
		probes++
		v := s.probe(g, B)
		if v < bestV {
			bestV, bestG = v, g
		}
		return v
	}
	j := s.lastRung
	if j < 0 || j > lineSearchMaxRung {
		j = 2 // 0.382, the coarse first probe of a fresh bracketing
	}
	v := eval(rung(j))
	finer := true
	if j < lineSearchMaxRung {
		if vf := eval(rung(j + 1)); vf < v {
			j, v = j+1, vf
		} else {
			finer = false
		}
	} else {
		finer = false
	}
	if finer {
		for j < lineSearchMaxRung && probes < lineSearchMaxProbes {
			nv := eval(rung(j + 1))
			if nv >= v {
				break
			}
			j, v = j+1, nv
		}
	} else {
		for j > 0 && probes < lineSearchMaxProbes {
			nv := eval(rung(j - 1))
			if nv >= v {
				break
			}
			j, v = j-1, nv
		}
	}
	if bestV < phi0-1e-9 && bestG > 0 {
		s.lastRung = j
		return bestG
	}
	fallback := 2.0 / float64(k+2)
	if fallback > 1 {
		fallback = 1
	}
	return fallback
}

// round applies the Theorem 3.4 threshold rule to the best fractional flow
// and routes an integral minimum flow meeting the rounded requirements.
//
// Per arc, the fractional flow sits on envelope segment [R_j, R_j+1) with
// fraction phi of the segment; phi > 1-alpha rounds up to R_j+1 (duration
// t_j+1 <= envelope value), else down to R_j (duration t_j <=
// envelope/alpha because the envelope keeps at least an alpha fraction of
// t_j).  Either way the rounded requirement is at most f/(1-alpha), so the
// fractional flow scaled by 1/(1-alpha) is feasible for the min-flow and
// the integral optimum uses at most floor(B/(1-alpha)) resources, while
// the makespan is at most RelaxValue/alpha: exactly the paper's bi-criteria
// guarantee, with the computed relaxation standing in for the LP.
func (s *Solver) round(budget int64, alpha float64) (core.Solution, error) {
	m := s.inst.G.NumEdges()
	env := s.env
	for e := 0; e < m; e++ {
		lo, hi := int(env.SegStart[e]), int(env.SegStart[e+1])
		x := s.fbest[e]
		j := lo
		for j+1 < hi && float64(env.R[j+1]) <= x {
			j++
		}
		if j+1 >= hi {
			s.req[e] = env.R[hi-1]
			continue
		}
		frac := (x - float64(env.R[j])) / float64(env.R[j+1]-env.R[j])
		if frac > 1-alpha {
			s.req[e] = env.R[j+1]
		} else {
			s.req[e] = env.R[j]
		}
	}
	res, err := s.mf.Solve(s.req)
	if err != nil {
		return core.Solution{}, err
	}
	f := append([]int64(nil), res.EdgeFlow...)
	return s.c.NewSolution(f)
}

// MinResource approximately minimizes resource usage under a makespan
// target: it binary-searches the budget, using the rounded solution for
// feasibility and the certified relaxation bound for infeasibility, so the
// returned LowerBound is a sound lower bound on the optimal resource
// usage.  Probes run with a reduced iteration budget; the final budget is
// re-solved at full strength.
func (s *Solver) MinResource(ctx context.Context, target int64, opt Options) (*Result, error) {
	if target < 0 {
		return nil, fmt.Errorf("relax: negative target %d", target)
	}
	o := opt.withDefaults(s.inst.G.NumEdges())
	if o.Alpha <= 0 || o.Alpha >= 1 {
		return nil, fmt.Errorf("relax: alpha %v outside (0,1)", o.Alpha)
	}
	// Binary-search probes each run their own Frank-Wolfe at a different
	// budget; their interleaved trajectories would not be monotone in the
	// resource objective, so MinResource emits no progress (see
	// Options.Progress).
	o.Progress = nil

	// Saturation check: even unlimited resources cannot beat the all-fastest
	// longest path, and the min-flow at full saturation is the cheapest way
	// to realize it.  It doubles as the feasible upper end of the search.
	for e := 0; e < s.inst.G.NumEdges(); e++ {
		s.req[e] = s.env.R[int(s.env.SegStart[e+1])-1]
	}
	satRes, err := s.mf.Solve(s.req)
	if err != nil {
		return nil, err
	}
	// The solver owns satRes.EdgeFlow and the searches below will overwrite
	// it; materialize the saturation solution now.  It is the guaranteed
	// fallback: its makespan is the unlimited-resource longest path.
	satSol, err := s.c.NewSolution(append([]int64(nil), satRes.EdgeFlow...))
	if err != nil {
		return nil, err
	}
	if satSol.Makespan > target {
		return nil, fmt.Errorf("relax: makespan target %d unreachable even with unlimited resources (floor %d)", target, satSol.Makespan)
	}
	hi := satSol.Value // feasible by construction
	feasible := int64(-1)

	// The slack-based combinatorial bound is free and often tight on loose
	// targets; certified relaxation infeasibility tightens it below.
	resLB := exact.ResourceLowerBound(s.c, target)

	probe := o
	probe.maxIters = o.maxIters / 4
	if probe.maxIters < 24 {
		probe.maxIters = 24
	}
	lo := int64(0)
	for lo <= hi {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mid := lo + (hi-lo)/2
		var pr Result
		if err := s.frankWolfe(ctx, mid, probe, &pr); err != nil {
			return nil, err
		}
		sol, err := s.round(mid, o.Alpha)
		if err != nil {
			return nil, err
		}
		switch {
		case sol.Makespan <= target:
			feasible = mid
			hi = mid - 1
		default:
			// Certified infeasibility promotes the probe into a resource
			// bound: if even the fractional relaxation (or the
			// combinatorial budget floor) cannot reach the target at this
			// budget, every solution needs more.
			if pr.LowerBound <= float64(target) {
				pr.LowerBound = float64(exact.BudgetedMakespanLowerBound(s.c, mid))
			}
			if pr.LowerBound > float64(target) && mid+1 > resLB {
				resLB = mid + 1
			}
			lo = mid + 1
		}
	}
	res := &Result{}
	sol := satSol
	if feasible >= 0 {
		if err := s.frankWolfe(ctx, feasible, o, res); err != nil {
			return nil, err
		}
		full, err := s.round(feasible, o.Alpha)
		if err != nil {
			return nil, err
		}
		if full.Makespan > target {
			// The full-strength re-solve found a different fractional
			// point whose rounding misses the target; replay the
			// probe-strength solve that certified feasibility.
			var pr Result
			if err := s.frankWolfe(ctx, feasible, probe, &pr); err != nil {
				return nil, err
			}
			if full, err = s.round(feasible, o.Alpha); err != nil {
				return nil, err
			}
		}
		if full.Makespan <= target && full.Value <= sol.Value {
			sol = full
		}
	}
	res.Sol = sol
	res.RelaxValue = float64(sol.Value)
	res.LowerBound = float64(resLB)
	return res, nil
}
