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
// Two indexes serve three kinds of repeats:
//
//   - byKey keys on a SHA-256 of bytes already seen.  A body key is the
//     hash of a whole /v1/solve body that was prepared as a single solve:
//     the duplicate-heavy traffic the service is built for resends
//     identical bodies, and a body hit skips even the body's scan, since
//     the key's bodyAlias rebuilds the request.  An instance key is the
//     hash of a request's RAW instance bytes, so the same instance under
//     other options, or in a batch, job or sweep, skips the decode - the
//     request never materializes an Instance.
//   - byHash keys on the canonical instance hash.  Two isomorphic
//     encodings of the same DAG (renamed nodes, reordered arcs) decode to
//     different bytes but compile to the same canonical hash; the second
//     one adopts the first's *core.Compiled, so lazily derived state
//     (envelopes, series-parallel recognition) is shared instead of
//     duplicated.
//
// A key keeps the role it was first registered in: a valid single-solve
// body can be byte-identical to a valid instance document that carries an
// extra "instance" member, and a body hit must never answer such an
// instance, nor an instance hit such a body.  Keys are aliases of an
// entry, capped by maxRawAliases and evicted with it.
//
// Compiled instances are immutable and all their lazy derivations are
// internally synchronized, so one *core.Compiled is safely shared by every
// concurrent solve.
type compiledCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	byKey    map[[sha256.Size]byte]keyRef
	byHash   map[string]*list.Element

	hits, bodyHits, misses, aliased, evictions int64
}

// keyRef is what a byKey key names: an entry and, for a body key, the
// request the body decoded to (nil for an instance key).
type keyRef struct {
	el   *list.Element
	body *bodyAlias
}

// maxRawAliases bounds how many keys, instance and body keys together,
// one compiled entry is indexed under; beyond it, new encodings still
// dedup through byHash and new bodies still decode, but neither is
// remembered, so a hostile stream of re-encodings cannot grow an entry
// without bound.
const maxRawAliases = 8

// compiledEntry is one LRU slot.
type compiledEntry struct {
	hash string
	keys [][sha256.Size]byte // its byKey keys, at most maxRawAliases
	c    *core.Compiled
}

// bodyAlias is the request a /v1/solve body decoded to: the solver name,
// the options, and the instance as offsets into the body.  It holds no
// body bytes; request rebuilds the request from the bytes of the body
// that hit.
type bodyAlias struct {
	solver     string
	opts       solver.WireOptions
	start, end int // the instance is body[start:end]; both 0 when absent
}

// newBodyAlias records req, decoded from body, as a bodyAlias; ok is
// false when req's instance is not a sub-slice of body.
func newBodyAlias(body []byte, req SolveRequest) (a bodyAlias, ok bool) {
	a = bodyAlias{solver: req.Solver, opts: req.Options}
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
		byKey:    make(map[[sha256.Size]byte]keyRef),
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
		// Disabled cache: addBody never registers a key, so skip hashing.
		return req, nil, key, false
	}
	key = sha256.Sum256(body)
	cc.mu.Lock()
	defer cc.mu.Unlock()
	ref, ok := cc.byKey[key]
	if !ok || ref.body == nil {
		return req, nil, key, false
	}
	cc.ll.MoveToFront(ref.el)
	cc.hits++
	cc.bodyHits++
	return ref.body.request(body), ref.el.Value.(*compiledEntry).c, key, true
}

// get returns the compiled instance for the raw instance bytes, if those
// exact bytes were compiled before.  The returned rawKey is the SHA-256 of
// raw either way; on a miss the caller passes it back to add, so each
// instance is hashed exactly once.
//
//rt:hotpath — first touch of every instance that is not a body hit; on a hot instance the whole compile pipeline collapses into this lookup.
func (cc *compiledCache) get(raw []byte) (c *core.Compiled, rawKey [sha256.Size]byte, ok bool) {
	if cc.capacity <= 0 {
		// Disabled cache: a hit is impossible (add never registers a key),
		// so do not pay SHA-256 over a possibly multi-MiB body; the zero
		// key is fine because add ignores it when disabled.
		return nil, rawKey, false
	}
	rawKey = sha256.Sum256(raw)
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if ref, ok := cc.byKey[rawKey]; ok && ref.body == nil {
		cc.ll.MoveToFront(ref.el)
		cc.hits++
		return ref.el.Value.(*compiledEntry).c, rawKey, true
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
		cc.alias(el, key, nil)
		cc.ll.MoveToFront(el)
		cc.aliased++
		return el.Value.(*compiledEntry).c
	}
	cc.misses++
	el := cc.ll.PushFront(&compiledEntry{hash: hash, c: c})
	cc.byHash[hash] = el
	cc.alias(el, key, nil)
	for cc.ll.Len() > cc.capacity {
		oldest := cc.ll.Back()
		cc.ll.Remove(oldest)
		old := oldest.Value.(*compiledEntry)
		delete(cc.byHash, old.hash)
		for _, k := range old.keys {
			delete(cc.byKey, k)
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
	a, ok := newBodyAlias(body, req)
	if !ok {
		return
	}
	hash := c.Hash()
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if el, ok := cc.byHash[hash]; ok {
		cc.alias(el, key, &a)
	}
}

// alias indexes el's entry under key, as a body key when body is not nil,
// unless key is already registered (in either role) or the entry is full.
// The caller holds cc.mu.
func (cc *compiledCache) alias(el *list.Element, key [sha256.Size]byte, body *bodyAlias) {
	ent := el.Value.(*compiledEntry)
	if _, dup := cc.byKey[key]; dup || len(ent.keys) >= maxRawAliases {
		return
	}
	ent.keys = append(ent.keys, key)
	cc.byKey[key] = keyRef{el: el, body: body}
}

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
