package service

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"repro/internal/core"
	"repro/internal/solver"
)

// compiledCache is the LRU of compiled instances that sits in FRONT of the
// result cache: where the result cache deduplicates whole solves, this one
// deduplicates the per-request preprocessing (JSON decode, validation,
// core.Compile, canonical hashing).  A hot DAG arriving with varying
// budgets, targets or solvers decodes and compiles exactly once across the
// pool; only the solve itself remains per-options work.
//
// Three indexes serve three kinds of repeats:
//
//   - byBody keys on the SHA-256 of a whole /v1/solve body that was
//     prepared as a single solve.  The duplicate-heavy traffic the service
//     is built for resends identical bodies, and a body hit skips even the
//     body's scan: the entry's bodyAlias rebuilds the request.
//   - byRaw keys on the SHA-256 of the request's RAW instance bytes, so
//     the same instance under other options, or in a batch, job or sweep,
//     skips the decode - the request never materializes an Instance.
//   - byHash keys on the canonical instance hash.  Two isomorphic
//     encodings of the same DAG (renamed nodes, reordered arcs) decode to
//     different bytes but compile to the same canonical hash; the second
//     one adopts the first's *core.Compiled, so lazily derived state
//     (envelopes, series-parallel recognition) is shared instead of
//     duplicated.
//
// Body and instance keys live in separate maps: a valid single-solve body
// can be byte-identical to a valid instance document that carries an
// extra "instance" member.  Both are aliases of an entry, capped together
// by maxRawAliases and evicted with it.
//
// Compiled instances are immutable and all their lazy derivations are
// internally synchronized, so one *core.Compiled is safely shared by every
// concurrent solve.
type compiledCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	byBody   map[[sha256.Size]byte]*list.Element
	byRaw    map[[sha256.Size]byte]*list.Element
	byHash   map[string]*list.Element

	hits, bodyHits, misses, aliased, evictions int64
}

// maxRawAliases bounds how many keys, instance and body keys together,
// one compiled entry is indexed under; beyond it, new encodings still
// dedup through byHash and new bodies still decode, but neither is
// remembered, so a hostile stream of re-encodings cannot grow an entry
// without bound.
const maxRawAliases = 8

// compiledEntry is one LRU slot.
type compiledEntry struct {
	hash    string
	rawKeys [][sha256.Size]byte
	bodies  []bodyAlias
	c       *core.Compiled
}

// bodyAlias is the request a /v1/solve body decoded to, kept under the
// body's SHA-256 in the entry of the request's compiled instance: the
// solver name, the options, and the instance as offsets into the body.
// It holds no body bytes; request rebuilds the request from the bytes of
// the body that hit.
type bodyAlias struct {
	key        [sha256.Size]byte
	solver     string
	opts       solver.WireOptions
	start, end int // the instance is body[start:end]; both 0 when absent
}

// newBodyAlias records req, decoded from body, as a bodyAlias under key;
// ok is false when req's instance is not a sub-slice of body.
func newBodyAlias(key [sha256.Size]byte, body []byte, req SolveRequest) (a bodyAlias, ok bool) {
	a = bodyAlias{key: key, solver: req.Solver, opts: req.Options}
	if len(req.Instance) == 0 {
		return a, req.Instance == nil
	}
	start := cap(body) - cap(req.Instance)
	if start < 0 || start+len(req.Instance) > len(body) || &body[start] != &req.Instance[0] {
		return a, false
	}
	a.start, a.end = start, start+len(req.Instance)
	return a, true
}

// request rebuilds the request the aliased body decodes to from body,
// that body's bytes.
func (a *bodyAlias) request(body []byte) SolveRequest {
	req := SolveRequest{Solver: a.solver, Options: a.opts}
	if a.end > a.start {
		req.Instance = body[a.start:a.end]
	}
	return req
}

// CompiledCacheStats snapshots the compiled-instance cache counters for
// /v1/stats.
type CompiledCacheStats struct {
	// Hits counts requests whose raw instance bytes, or whole /v1/solve
	// body, were already compiled: they skipped decode, validation,
	// compilation and hashing outright.
	Hits int64 `json:"hits"`
	// BodyHits counts the Hits whose whole /v1/solve body was already
	// prepared as a single solve: they skipped the body's scan as well,
	// and hashed only the body.
	BodyHits int64 `json:"body_hits"`
	// Misses counts requests that decoded and compiled a valid instance
	// whose canonical hash was not cached yet.  Requests whose body never
	// decodes (400s) count nowhere, so hits/(hits+misses+aliased) is the
	// true preprocessing dedup rate.
	Misses int64 `json:"misses"`
	// Aliased counts decoded requests that turned out isomorphic to an
	// already-compiled instance (same canonical hash, different bytes) and
	// adopted its compiled form.
	Aliased int64 `json:"aliased"`
	// Evictions counts LRU evictions.
	Evictions int64 `json:"evictions"`
	// Size and Capacity describe the LRU occupancy.
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
}

// newCompiledCache builds a cache holding up to capacity compiled
// instances; capacity <= 0 disables storage (every request compiles).
func newCompiledCache(capacity int) *compiledCache {
	return &compiledCache{
		capacity: capacity,
		ll:       list.New(),
		byBody:   make(map[[sha256.Size]byte]*list.Element),
		byRaw:    make(map[[sha256.Size]byte]*list.Element),
		byHash:   make(map[string]*list.Element),
	}
}

// getBody returns the request a /v1/solve body decodes to and that
// request's compiled instance, if the same bytes were decoded, compiled
// and validated before as a single solve.  The returned key is the
// SHA-256 of body either way; on a miss the caller passes it back to
// addBody once the request is prepared.
//
//rt:hotpath — first touch of every /v1/solve body; a repeated body skips its scan and its instance's own hash.
func (cc *compiledCache) getBody(body []byte) (req SolveRequest, c *core.Compiled, key [sha256.Size]byte, ok bool) {
	if cc.capacity <= 0 {
		// Disabled cache: addBody never populates byBody, so skip hashing.
		return req, nil, key, false
	}
	key = sha256.Sum256(body)
	cc.mu.Lock()
	defer cc.mu.Unlock()
	el, ok := cc.byBody[key]
	if !ok {
		return req, nil, key, false
	}
	ent := el.Value.(*compiledEntry)
	for i := range ent.bodies {
		if ent.bodies[i].key == key {
			req = ent.bodies[i].request(body)
			break
		}
	}
	cc.ll.MoveToFront(el)
	cc.hits++
	cc.bodyHits++
	return req, ent.c, key, true
}

// get returns the compiled instance for the raw instance bytes, if those
// exact bytes were compiled before.  The returned rawKey is the SHA-256 of
// raw either way; on a miss the caller passes it back to add, so each
// instance is hashed exactly once.
//
//rt:hotpath — first touch of every instance that is not a body hit; on a hot instance the whole compile pipeline collapses into this lookup.
func (cc *compiledCache) get(raw []byte) (c *core.Compiled, rawKey [sha256.Size]byte, ok bool) {
	if cc.capacity <= 0 {
		// Disabled cache: a hit is impossible (add never populates byRaw),
		// so do not pay SHA-256 over a possibly multi-MiB body; the zero
		// key is fine because add ignores it when disabled.
		return nil, rawKey, false
	}
	rawKey = sha256.Sum256(raw)
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if el, ok := cc.byRaw[rawKey]; ok {
		cc.ll.MoveToFront(el)
		cc.hits++
		return el.Value.(*compiledEntry).c, rawKey, true
	}
	// The miss is counted in add, not here: a body that never decodes (a
	// 400) must not deflate the hit rate operators size the cache by.
	return nil, rawKey, false
}

// add indexes a freshly compiled instance under its raw-bytes key (as
// returned by get) and its canonical hash, and returns the CANONICAL
// compiled form: if an isomorphic instance was compiled earlier, the
// existing *core.Compiled is returned (its lazy derivations are already
// warm) and the new raw bytes become an alias for it.
func (cc *compiledCache) add(key [sha256.Size]byte, c *core.Compiled) *core.Compiled {
	hash := c.Hash() // computed before taking the lock; memoized on c
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.capacity <= 0 {
		cc.misses++
		return c
	}
	if el, ok := cc.byHash[hash]; ok {
		ent := el.Value.(*compiledEntry)
		if _, dup := cc.byRaw[key]; !dup && ent.aliases() < maxRawAliases {
			ent.rawKeys = append(ent.rawKeys, key)
			cc.byRaw[key] = el
		}
		cc.ll.MoveToFront(el)
		cc.aliased++
		return ent.c
	}
	cc.misses++
	ent := &compiledEntry{hash: hash, rawKeys: [][sha256.Size]byte{key}, c: c}
	el := cc.ll.PushFront(ent)
	cc.byHash[hash] = el
	cc.byRaw[key] = el
	for cc.ll.Len() > cc.capacity {
		oldest := cc.ll.Back()
		cc.ll.Remove(oldest)
		old := oldest.Value.(*compiledEntry)
		delete(cc.byHash, old.hash)
		for _, rk := range old.rawKeys {
			delete(cc.byRaw, rk)
		}
		for i := range old.bodies {
			delete(cc.byBody, old.bodies[i].key)
		}
		cc.evictions++
	}
	return c
}

// addBody makes key, the SHA-256 of body, an alias of the entry holding
// c, the compiled instance of req: the single solve body decoded to,
// now prepared.  A body whose entry has been evicted meanwhile, or is
// full, stays unaliased and decodes again when it repeats.
func (cc *compiledCache) addBody(key [sha256.Size]byte, body []byte, req SolveRequest, c *core.Compiled) {
	a, ok := newBodyAlias(key, body, req)
	if !ok {
		return
	}
	hash := c.Hash()
	cc.mu.Lock()
	defer cc.mu.Unlock()
	el, ok := cc.byHash[hash]
	if !ok {
		return
	}
	ent := el.Value.(*compiledEntry)
	if _, dup := cc.byBody[key]; dup || ent.aliases() >= maxRawAliases {
		return
	}
	ent.bodies = append(ent.bodies, a)
	cc.byBody[key] = el
}

// aliases counts the keys an entry is indexed under in byRaw and byBody.
func (e *compiledEntry) aliases() int { return len(e.rawKeys) + len(e.bodies) }

// stats snapshots the counters.
func (cc *compiledCache) stats() CompiledCacheStats {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return CompiledCacheStats{
		Hits:      cc.hits,
		BodyHits:  cc.bodyHits,
		Misses:    cc.misses,
		Aliased:   cc.aliased,
		Evictions: cc.evictions,
		Size:      cc.ll.Len(),
		Capacity:  cc.capacity,
	}
}
