// Package service implements rtserve's long-running HTTP/JSON solving
// service over the unified solver registry: a semaphore bounding how many
// solves run at once (each on its request's goroutine), a
// compiled-instance LRU in front of a canonical-hash-keyed LRU result
// cache with single-flight de-duplication, and wire-level validation
// that turns every malformed input into a 400 instead of a panic.
//
// Endpoints:
//
//	POST   /v1/solve            one solve, or a batch under {"batch": [...]}
//	GET    /v1/solvers          registry listing with capabilities
//	GET    /v1/stats            cache/pool/request/job counters
//	GET    /healthz             liveness
//	POST   /v1/jobs             submit an async solve; 202 + job id
//	GET    /v1/jobs             list known jobs
//	GET    /v1/jobs/{id}        poll one job's status and result
//	DELETE /v1/jobs/{id}        cancel a queued/running job, or forget a done one
//	GET    /v1/jobs/{id}/events live incumbent/bound/gap trajectory over SSE
//	GET    /v1/frontier         resource-time tradeoff curve of a stored instance
//	POST   /v1/frontier         resource-time tradeoff curve of an inline instance
//
// Peer endpoints (the versioned internal cluster API; always mounted,
// meaningful under Config.Peers):
//
//	POST   /internal/v1/solve        owner-side solve of a forwarded request (never re-forwards)
//	GET    /internal/v1/probe/{hash} what this node holds for a canonical hash
//	GET    /internal/v1/health       liveness plus ring membership
//
// Every endpoint, public and internal, answers non-2xx with the unified
// Error envelope ({"error": {code, message, detail}}).  Each route's
// methods are stated once, in the routes table (Endpoints): any other
// method gets 405 before its handler runs.  One sweep, Server.Frontier,
// serves both /v1/frontier forms, frontier jobs and rtsolve.
//
// Solves are pure functions of (instance, solver, options), so the result
// cache key is solver.ResultCacheKey: the compiled instance's canonical
// hash plus the solver name and Options.CacheKey; identical requests —
// across clients, across time, or duplicated inside one batch — compute
// at most once.  One layer below, the compiled-instance cache
// (compiledCache) deduplicates the preprocessing itself: a hot DAG with
// varying budgets or targets decodes, validates, compiles and hashes
// exactly once across the pool, and repeats skip straight to the solve
// (or to the result-cache hit).  A /v1/solve body resent byte for byte
// is one SHA-256 and one lookup: once a body has been prepared as a
// single solve, its key is an alias of the compiled entry that gives
// back the request it decoded to, so the body is never scanned again.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/solver"
	"repro/internal/store"
)

// Config tunes a Server.
type Config struct {
	// Workers sizes the solve pool; <= 0 means GOMAXPROCS.
	Workers int
	// CacheEntries caps the result LRU; 0 means the 1024 default, < 0
	// disables caching (single-flight de-duplication stays on).
	CacheEntries int
	// CompiledEntries caps the compiled-instance LRU in front of the
	// result cache; 0 means the 512 default, < 0 disables it (every
	// request decodes and compiles, and no body is aliased).  The cap
	// counts ENTRIES, not bytes: each entry retains the decoded instance,
	// its CSR/breakpoint arrays and any lazily derived envelope or
	// recognition state - a small multiple of the instance's wire size.
	// Its instance and body aliases hold no request bytes: a key, and for
	// a body the solver name, options and two offsets.  Deployments
	// accepting large bodies (MaxBodyBytes) from untrusted clients should
	// budget roughly CompiledEntries x a few x MaxBodyBytes of residency,
	// and size the cap (or disable the cache) accordingly.
	CompiledEntries int
	// MaxBodyBytes caps request bodies; <= 0 means the 8 MiB default.
	MaxBodyBytes int64
	// StoreDir roots the durable solve store.  Empty keeps the service
	// purely in-memory; set, the server loads every previously stored
	// result at boot (so restarts resume warm), writes every completed
	// solve through to disk, and warm-starts solves of near-identical
	// instances from stored neighbors.
	StoreDir string
	// RetainJobs caps how many FINISHED jobs the in-memory job registry
	// keeps for polling; 0 means the 256 default, < 0 keeps none beyond
	// the final status read race.  Queued and running jobs are never
	// evicted.
	RetainJobs int
	// Self and Peers enable cluster mode (see internal/cluster): Self is
	// this node's advertised base URL (scheme://host[:port]) and Peers is
	// the full static membership; Self is added to Peers if absent.  Both
	// empty keeps the node standalone.  Every member must be configured
	// with the same membership, or nodes will disagree about ownership
	// and dedup degrades to per-disagreement duplicate solves (results
	// stay correct — solves are pure).
	Self  string
	Peers []string
}

// Defaults for Config zero values.
const (
	defaultCacheEntries    = 1024
	defaultCompiledEntries = 512
	defaultMaxBody         = 8 << 20
	defaultRetainJobs      = 256
)

// Server is the solving service.  Create with New, expose via Handler,
// shut down with Close.
type Server struct {
	pool     *pool
	cache    *resultCache
	compiled *compiledCache
	store    *store.Store // nil without Config.StoreDir
	jobs     *jobRegistry
	cluster  *clusterState // nil without Config.Peers/Self
	mux      *http.ServeMux
	start    time.Time
	maxBody  int64

	requests  atomic.Int64
	warmHits  atomic.Int64
	closeOnce sync.Once
}

// New builds a Server from cfg; the zero Config is a standalone,
// in-memory server with every default.  With Config.StoreDir it also
// opens the durable store; an unusable store directory is an error — a
// persistence-configured service must never silently start empty
// (corrupt individual entries are skipped and counted instead, see
// StoreLoad).  With Config.Self and Config.Peers the server joins a
// static cluster (see internal/cluster).
func New(cfg Config) (*Server, error) {
	entries := cfg.CacheEntries
	switch {
	case entries == 0:
		entries = defaultCacheEntries
	case entries < 0:
		entries = 0
	}
	compiledEntries := cfg.CompiledEntries
	switch {
	case compiledEntries == 0:
		compiledEntries = defaultCompiledEntries
	case compiledEntries < 0:
		compiledEntries = 0
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = defaultMaxBody
	}
	var st *store.Store
	if cfg.StoreDir != "" {
		var err error
		if st, err = store.Open(cfg.StoreDir); err != nil {
			return nil, err
		}
	}
	retain := cfg.RetainJobs
	switch {
	case retain == 0:
		retain = defaultRetainJobs
	case retain < 0:
		retain = 0
	}
	var cl *clusterState
	if cfg.Self != "" || len(cfg.Peers) > 0 {
		if cfg.Self == "" {
			return nil, errors.New("service: cluster mode needs a self address alongside the peer list")
		}
		ring, err := cluster.NewRing(cfg.Self, cfg.Peers)
		if err != nil {
			return nil, err
		}
		cl = newClusterState(ring)
	}
	s := &Server{
		pool:     newPool(cfg.Workers),
		cache:    newResultCache(entries),
		compiled: newCompiledCache(compiledEntries),
		store:    st,
		cluster:  cl,
		mux:      http.NewServeMux(),
		start:    time.Now(),
		maxBody:  maxBody,
	}
	s.jobs = newJobRegistry(s, s.pool.size(), retain)
	for _, ep := range s.routes() {
		s.mux.HandleFunc(ep.Pattern, allowMethods(ep.Methods, ep.handler))
	}
	return s, nil
}

// Endpoint is one registered route: the ServeMux pattern it is mounted at
// and the methods its handler accepts.  The list is the single source of
// truth shared by the mux registration, the method check, the
// documentation-coverage test, and CI's docs-consistency gate.
type Endpoint struct {
	// Pattern is the ServeMux pattern (path only, so a method outside
	// Methods reaches allowMethods and gets the JSON 405 envelope rather
	// than ServeMux's plain-text one).
	Pattern string
	// Methods lists the HTTP methods the route accepts; New answers any
	// other method with 405 before the handler runs.
	Methods []string

	handler http.HandlerFunc
}

// routes lists every endpoint the service serves.  Adding a route here is
// the only way to register one; the docs gate walks the same list.
func (s *Server) routes() []Endpoint {
	return []Endpoint{
		{Pattern: "/healthz", Methods: []string{"GET"}, handler: s.handleHealthz},
		{Pattern: "/v1/solve", Methods: []string{"POST"}, handler: s.handleSolve},
		{Pattern: "/v1/solvers", Methods: []string{"GET"}, handler: s.handleSolvers},
		{Pattern: "/v1/stats", Methods: []string{"GET"}, handler: s.handleStats},
		{Pattern: "/v1/jobs", Methods: []string{"GET", "POST"}, handler: s.handleJobs},
		{Pattern: "/v1/jobs/{id}", Methods: []string{"GET", "DELETE"}, handler: s.handleJob},
		{Pattern: "/v1/jobs/{id}/events", Methods: []string{"GET"}, handler: s.handleJobEvents},
		{Pattern: "/v1/frontier", Methods: []string{"GET", "POST"}, handler: s.handleFrontier},
		{Pattern: "/internal/v1/solve", Methods: []string{"POST"}, handler: s.handleInternalSolve},
		{Pattern: "/internal/v1/probe/{hash}", Methods: []string{"GET"}, handler: s.handleInternalProbe},
		{Pattern: "/internal/v1/health", Methods: []string{"GET"}, handler: s.handleInternalHealth},
	}
}

// allowMethods wraps h so that a request whose method is outside methods
// gets the 405 envelope before h runs: no handler checks its own method.
func allowMethods(methods []string, h http.HandlerFunc) http.HandlerFunc {
	msg := "use " + strings.Join(methods, " or ")
	return func(w http.ResponseWriter, r *http.Request) {
		if !slices.Contains(methods, r.Method) {
			writeError(w, http.StatusMethodNotAllowed, "%s", msg)
			return
		}
		h(w, r)
	}
}

// Endpoints describes the service's routes without building a server:
// the documentation tooling's entry point.
func Endpoints() []Endpoint {
	var s Server
	eps := s.routes()
	for i := range eps {
		eps[i].handler = nil
	}
	return eps
}

// StoreLoad reports what the durable store found at boot, so embedders
// (cmd/rtserve) can log skipped entries instead of silently losing them.
// ok is false when the server runs without a store.
func (s *Server) StoreLoad() (lr store.LoadReport, ok bool) {
	if s.store == nil {
		return store.LoadReport{}, false
	}
	return s.store.Load(), true
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close cancels outstanding jobs, waits for them to settle, then waits
// for running synchronous solves to finish.  Any solve that reaches the
// pool afterwards fails with 503 unavailable, so requests still being
// served (a batch outliving the HTTP server's shutdown grace period)
// end cleanly.  Safe to call more than once.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.jobs.close()
		s.pool.close()
		if s.cluster != nil {
			s.cluster.client.CloseIdle()
		}
	})
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding failures past the header are unrecoverable mid-stream; the
	// types here marshal unconditionally.
	_ = json.NewEncoder(w).Encode(body)
}

// errCodeFor maps an HTTP status to the envelope's stable machine code.
func errCodeFor(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "invalid_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}

// writeError answers with the unified Error envelope; the machine code
// is derived from the status so handler call sites state each failure
// once.  Use writeErrorDetail to attach an identifier.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeErrorDetail(w, status, "", format, args...)
}

// writeErrorDetail is writeError with the envelope's detail field set
// (an offending identifier such as a job id or instance hash).
func writeErrorDetail(w http.ResponseWriter, status int, detail, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: Error{
		Code:    errCodeFor(status),
		Message: fmt.Sprintf(format, args...),
		Detail:  detail,
	}})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:   "ok",
		UptimeMS: float64(time.Since(s.start)) / float64(time.Millisecond),
	})
}

func (s *Server) handleSolvers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, SolversResponse{Solvers: solver.Infos()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats snapshots the service counters: exactly what GET /v1/stats
// writes, for embedders (rtcorpus records it in its quality report).
func (s *Server) Stats() StatsResponse {
	return StatsResponse{
		UptimeMS: float64(time.Since(s.start)) / float64(time.Millisecond),
		Requests: s.requests.Load(),
		WarmHits: s.warmHits.Load(),
		Cache:    s.cache.stats(),
		Compiled: s.compiled.stats(),
		Pool:     s.pool.stats(),
		Jobs:     s.jobs.stats(),
		Store:    s.storeStats(),
		Cluster:  s.clusterStats(),
	}
}

// storeStats snapshots the durable store, nil without one.
func (s *Server) storeStats() *store.Stats {
	if s.store == nil {
		return nil
	}
	st := s.store.Stats()
	return &st
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	body, err := s.readBody(w, r)
	if err != nil {
		writeBadBody(w, err)
		return
	}
	// A body already prepared as a single solve is one lookup: its alias
	// gives back the request it decoded to and the compiled instance, and
	// the body is never scanned again.
	req, c, key, hit := s.compiled.getBody(body)
	if !hit {
		env, err := decodeSolveEnvelope(body)
		if err != nil {
			writeBadBody(w, err)
			return
		}
		if len(env.Batch) > 0 {
			s.solveBatch(w, r, env)
			return
		}
		req = env.SolveRequest
	}
	resp, status := s.solveOne(r.Context(), req, false, &solveBody{bytes: body, key: key, c: c})
	writeSolve(w, resp, status)
}

// solveBatch answers a batch body: each item solves through solveOne on
// its own, with no body alias.
func (s *Server) solveBatch(w http.ResponseWriter, r *http.Request, env solveEnvelope) {
	if len(env.Instance) > 0 {
		writeError(w, http.StatusBadRequest, "request has both a batch and an inline instance; send one or the other")
		return
	}
	// Fan the items out under a semaphore: solves are bounded by the
	// pool anyway, but decoding/hashing ahead of it is not free, and a
	// single maximum-size body of tiny items must not turn into tens
	// of thousands of parked goroutines — that would be exactly the
	// hidden unbounded queue the pool's admission control exists to
	// prevent.
	resp := BatchResponse{Results: make([]SolveResponse, len(env.Batch))}
	sem := make(chan struct{}, 2*s.pool.size())
	var wg sync.WaitGroup
	for i := range env.Batch {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			resp.Results[i], _ = s.solveOne(r.Context(), env.Batch[i], false, nil)
		}(i)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, resp)
}

// writeSolve answers a single (non-batch) solve: the SolveResponse on
// success — including partial deadline-interrupted results, which are
// answers — and the unified Error envelope otherwise.  When status is
// not 2xx the response carries no report by construction (solvePrepared
// maps every partial result to 200), so the envelope loses nothing.
func writeSolve(w http.ResponseWriter, resp SolveResponse, status int) {
	if status < http.StatusBadRequest {
		writeJSON(w, status, resp)
		return
	}
	writeErrorDetail(w, status, resp.Hash, "%s", resp.Error)
}

// prepared is one decoded, compiled and validated solve request, ready to
// run — immediately (the synchronous path) or later (queued on a job).
// Preparing at admission time means a malformed request fails with a 400
// before it is accepted, never as a dead job.
type prepared struct {
	name        string
	c           *core.Compiled
	compiledHit bool
	req         SolveRequest // the wire form, as received
	opts        solver.Options
	// owner, when set, is the cluster peer owning c's hash: the request's
	// flight forwards req there before falling back to a local solve.
	owner string
}

// prepare decodes, compiles and validates req.  c, when not nil, is req's
// instance compiled already (a /v1/solve body hit), so only the options
// and the solver are checked.  Any relative deadline in the options is
// anchored at now, so a job's deadline budget starts at submission,
// queueing included.
func (s *Server) prepare(req SolveRequest, c *core.Compiled, now time.Time) (*prepared, error) {
	name := req.Solver
	if name == "" {
		name = "auto"
	}
	if len(req.Instance) == 0 {
		return nil, errors.New("missing instance")
	}
	compiledHit := c != nil
	if c == nil {
		// The compiled-instance cache is consulted on the RAW bytes first: a
		// hot instance skips JSON decoding, validation, compilation and
		// canonical hashing entirely.  Only on a miss is the wire document
		// decoded and compiled, and even then an isomorphic encoding of a
		// known DAG adopts the existing compiled form.
		var rawKey [sha256.Size]byte
		c, rawKey, compiledHit = s.compiled.get(req.Instance)
		if !compiledHit {
			var inst core.Instance
			if err := inst.UnmarshalJSON(req.Instance); err != nil {
				return nil, fmt.Errorf("invalid instance: %v", err)
			}
			c = s.compiled.add(rawKey, core.Compile(&inst))
		}
	}
	opts, err := req.Options.Resolve(now)
	if err != nil {
		return nil, fmt.Errorf("invalid options: %v", err)
	}
	sv, err := solver.Get(name)
	if err != nil {
		return nil, err
	}
	if err := solver.ValidateOptions(sv, opts); err != nil {
		return nil, err
	}
	return &prepared{name: name, c: c, compiledHit: compiledHit, req: req, opts: opts}, nil
}

// solveBody is the /v1/solve body a single request arrived in: the
// bytes, their SHA-256 (the body key of the compiled cache) and, on a
// body hit, the request's compiled instance.
type solveBody struct {
	bytes []byte
	key   [sha256.Size]byte
	c     *core.Compiled
}

// solveOne validates, hashes, and solves a single request through the
// cache and pool, returning the response and the HTTP status a
// single-solve endpoint should use for it (batch items embed the error
// per item instead).  body, when not nil, is the /v1/solve body req came
// in: on a body miss, its key becomes an alias of req's compiled entry
// once req is prepared.  In cluster mode a request whose hash belongs to
// another node is forwarded to its owner by the request's flight;
// viaPeer marks requests that already arrived over /internal/v1/solve,
// which must solve here — forwarding them again could bounce between
// nodes that disagree about membership (forward-once invariant).
func (s *Server) solveOne(ctx context.Context, req SolveRequest, viaPeer bool, body *solveBody) (SolveResponse, int) {
	start := time.Now()
	var c *core.Compiled
	if body != nil {
		c = body.c
	}
	p, err := s.prepare(req, c, start)
	if err != nil {
		return SolveResponse{
			Error:  err.Error(),
			WallMS: float64(time.Since(start)) / float64(time.Millisecond),
		}, http.StatusBadRequest
	}
	if body != nil && body.c == nil {
		s.compiled.addBody(body.key, body.bytes, req, p.c)
	}
	var owner string
	if s.cluster != nil {
		owner = s.cluster.ring.Owner(p.c.Hash())
		if !viaPeer && owner != s.cluster.ring.Self() {
			p.owner = owner
		}
	}
	resp, status := s.solvePrepared(ctx, p, start)
	// Owner is reported even when it is not this node: a response with a
	// foreign owner and Forwarded false is a visible fallback solve.
	resp.Owner = owner
	return resp, status
}

// solvePrepared runs a prepared request through the result cache, the
// cluster owner (when p.owner is set), the durable store, warm-start
// seeding and the pool: the shared execution path behind /v1/solve,
// jobs, and every frontier point.
func (s *Server) solvePrepared(ctx context.Context, p *prepared, start time.Time) (SolveResponse, int) {
	name, c, opts := p.name, p.c, p.opts

	key := solver.ResultCacheKey(name, c, opts)
	// Deadline-free requests share work: identical concurrent requests
	// coalesce onto one flight and the result enters the LRU.  The flight
	// computes under a context detached from this requester, so one
	// client disconnecting cannot poison the identical requests (and the
	// future cache entries) riding on its flight; each waiter still honors
	// its own context while waiting, and the flight's solve is canceled
	// once every waiter has left (resultCache.do).  Deadline-bounded
	// requests may legitimately end truncated, and a truncation is shaped
	// by THIS request's deadline — it must be neither shared with nor
	// inherited from anyone else.  They read the cache (a complete result
	// satisfies any deadline), compute under their own context otherwise,
	// and contribute complete results back.
	share := opts.Deadline.IsZero()
	var storeHit, warm bool
	// compute runs only on an LRU miss, for the flight's leader.  On a
	// cluster node that does not own the hash it asks the owner first; a
	// forwarded answer goes back to every caller of the flight but never
	// into this node's LRU or store.  Otherwise — or when the owner is
	// unreachable — the durable store is probed (a hit answers without
	// queueing any pool work), then a stored neighbor (same structural
	// sketch, solver and options, different instance) is sought to
	// warm-start the real solve, and a completed result is written
	// through to the store.  Warm starts are hints by contract
	// (solver.Options.Incumbent): certificates are recomputed, so a wrong
	// or stale donor can cost time but never change a complete result.
	compute := func(solveCtx context.Context) (flightResult, error) {
		if p.owner != "" {
			if resp, ok := s.cluster.forward(solveCtx, p); ok {
				return flightResult{fwd: &resp}, nil
			}
			s.cluster.fallbacks.Add(1)
		}
		if s.store != nil {
			if rep, ok := s.store.GetReport(key); ok {
				storeHit = true
				return flightResult{rep: rep}, nil
			}
		}
		// An incumbent supplied by the caller (the frontier's
		// neighbor-chaining) takes precedence; otherwise ask the store for
		// a sketch-matched donor.
		if opts.Incumbent == nil && s.store != nil {
			opts.Incumbent = s.warmSeed(c, name, opts)
		}
		warm = opts.Incumbent != nil
		if warm {
			s.warmHits.Add(1)
		}
		if s.cluster != nil && s.cluster.ring.IsOwner(c.Hash()) {
			// A fresh pool solve for a hash this node owns: the unit the
			// cluster-wide dedup invariant counts.  Cache, store and warm
			// paths above never reach here, and fallback solves on
			// non-owners are counted as fallbacks instead.
			s.cluster.ownerSolves.Add(1)
		}
		rep, err := s.pool.do(solveCtx, func() (solver.WireReport, error) {
			r, err := solver.SolveCompiledOptions(solveCtx, name, c, opts)
			if r == nil {
				return solver.WireReport{}, err
			}
			return r.Wire(), err
		})
		if err == nil && rep.Complete && s.store != nil {
			// Write-through, best effort: a full disk degrades durability,
			// not availability.  The raw request bytes are a valid stored
			// encoding of the instance even when the compiled form came from
			// an isomorphic earlier request — all encodings share the hash.
			meta := store.Meta{Hash: c.Hash(), Sketch: c.Sketch(), Solver: name, OptKey: opts.CacheKey(), Arcs: c.ArcDigests()}
			_ = s.store.PutReport(key, meta, rep)
			_ = s.store.PutInstance(c.Hash(), c.Sketch(), p.req.Instance)
		}
		return flightResult{rep: rep}, err
	}
	out, cached, err := s.cache.do(ctx, key, share, compute)
	if out.fwd != nil {
		// The owner's response is the answer, timed here (network hop
		// included; the owner's compute time stays in Report.WallMS).  A
		// caller that rode another request's forward did not dispatch
		// anything: that is what Cached means.
		resp := *out.fwd
		if cached {
			resp.Cached = true
			s.cluster.forwardCoalesced.Add(1)
		}
		resp.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
		return resp, http.StatusOK
	}

	resp := SolveResponse{
		Hash:          c.Hash(),
		Cached:        cached,
		CompiledHit:   p.compiledHit,
		StoreHit:      storeHit,
		Warm:          warm,
		InstanceNodes: c.Inst.G.NumNodes(),
		InstanceArcs:  c.Inst.G.NumEdges(),
		WallMS:        float64(time.Since(start)) / float64(time.Millisecond),
	}
	if out.rep.Solver != "" {
		resp.Report = &out.rep
	}
	if err != nil {
		resp.Error = err.Error()
		switch {
		case resp.Report != nil:
			// A partial result (deadline-interrupted or node-capped solve,
			// or the immediate lower-bound-only report of a dead-on-arrival
			// deadline) is an answer, not a server failure.
			return resp, http.StatusOK
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled),
			errors.Is(err, errClosed):
			return resp, http.StatusServiceUnavailable
		case errors.Is(err, errPanicked):
			return resp, http.StatusInternalServerError
		default:
			return resp, http.StatusBadRequest
		}
	}
	return resp, http.StatusOK
}

// warmSeed looks for a stored warm-start donor for compiled instance c
// under (solver name, options): a completed report with a witness flow on
// a DIFFERENT instance with the identical structural sketch.  Equal
// sketches mean index-aligned identical topology, so the donor's flow is
// conserved arc for arc here; the seed is only worth taking when few arcs
// changed their duration functions, so instances differing on more than
// half their arcs solve cold.  The touched arcs are counted from the
// donor's stored digests (core.DiffDigests), in memory: the donor's
// instance is never read.  Returns nil when no donor qualifies.
func (s *Server) warmSeed(c *core.Compiled, name string, opts solver.Options) []int64 {
	meta, donor, ok := s.store.Neighbor(c.Sketch(), name, opts.CacheKey(), c.Hash())
	if !ok {
		return nil
	}
	touched, ok := core.DiffDigests(c.ArcDigests(), meta.Arcs)
	if !ok || 2*touched > c.Inst.G.NumEdges() {
		return nil
	}
	return donor.Flow
}
