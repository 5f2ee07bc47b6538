package service

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"repro/internal/core"
)

// compiledCache is the LRU of compiled instances that sits in FRONT of the
// result cache: where the result cache deduplicates whole solves, this one
// deduplicates the per-request preprocessing (JSON decode, validation,
// core.Compile, canonical hashing).  A hot DAG arriving with varying
// budgets, targets or solvers decodes and compiles exactly once across the
// pool; only the solve itself remains per-options work.
//
// Two indexes serve two kinds of repeats:
//
//   - byRaw keys on the SHA-256 of the request's RAW instance bytes.  The
//     duplicate-heavy traffic the service is built for resends identical
//     JSON, and a raw hit skips even the decode - the request never
//     materializes an Instance at all.
//   - byHash keys on the canonical instance hash.  Two isomorphic
//     encodings of the same DAG (renamed nodes, reordered arcs) decode to
//     different bytes but compile to the same canonical hash; the second
//     one adopts the first's *core.Compiled, so lazily derived state
//     (envelopes, series-parallel recognition) is shared instead of
//     duplicated.
//
// Compiled instances are immutable and all their lazy derivations are
// internally synchronized, so one *core.Compiled is safely shared by every
// concurrent solve.
type compiledCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	byRaw    map[[sha256.Size]byte]*list.Element
	byHash   map[string]*list.Element

	hits, misses, aliased, evictions int64
}

// maxRawAliases bounds how many distinct raw encodings one compiled entry
// indexes; beyond it, new encodings still dedup through byHash but are not
// remembered, so a hostile stream of re-encodings cannot grow an entry
// without bound.
const maxRawAliases = 8

// compiledEntry is one LRU slot.
type compiledEntry struct {
	hash    string
	rawKeys [][sha256.Size]byte
	c       *core.Compiled
}

// CompiledCacheStats snapshots the compiled-instance cache counters for
// /v1/stats.
type CompiledCacheStats struct {
	// Hits counts requests whose raw instance bytes were already compiled:
	// they skipped decode, validation, compilation and hashing outright.
	Hits int64 `json:"hits"`
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
		byRaw:    make(map[[sha256.Size]byte]*list.Element),
		byHash:   make(map[string]*list.Element),
	}
}

// get returns the compiled instance for the raw request bytes, if those
// exact bytes were compiled before.  The returned rawKey is the SHA-256 of
// raw either way; on a miss the caller passes it back to add, so each
// request body is hashed exactly once.
//
//rt:hotpath — first touch of every solve request; on a hot instance the whole compile pipeline collapses into this lookup.
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
		if _, dup := cc.byRaw[key]; !dup && len(ent.rawKeys) < maxRawAliases {
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
		cc.evictions++
	}
	return c
}

// stats snapshots the counters.
func (cc *compiledCache) stats() CompiledCacheStats {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return CompiledCacheStats{
		Hits:      cc.hits,
		Misses:    cc.misses,
		Aliased:   cc.aliased,
		Evictions: cc.evictions,
		Size:      cc.ll.Len(),
		Capacity:  cc.capacity,
	}
}
