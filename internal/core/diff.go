package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
)

// Structural sketches and instance diffs.
//
// The durable solve store (internal/store) warm-starts a solve from a
// stored NEIGHBOR: an instance that differs from the incoming one on a
// handful of arcs.  Finding such neighbors needs an index coarser than
// CanonicalHash (which changes whenever any breakpoint moves) but strict
// enough that a stored solution transfers: the SKETCH hashes only the
// topology — node count, arc count, and every arc's endpoints in arc-index
// order.  Two instances with equal sketches have identical arc indexing,
// so a flow on one is a candidate flow on the other, arc by arc, and
// Diff can compare their duration tables positionally in O(m).  The
// per-arc DIGESTS (ArcDigests) summarize those tables in 32 bits each, so
// a store can keep a neighbor's summary in memory and count its touched
// arcs (DiffDigests) without the neighbor's instance.
//
// Unlike CanonicalHash, the sketch deliberately does NOT sort the arc
// encodings: sorting would make the sketch insensitive to arc order, but
// then equal sketches would no longer imply index-aligned arcs and flows
// could not transfer without solving an assignment problem.  A re-encoded
// instance with permuted arcs therefore sketches differently — for a
// warm-start index that only costs a missed neighbor, never a wrong one.
const sketchVersion = "rtt-sketch-v1"

// AppendSketch appends the sketch byte encoding of the instance (version
// tag, node count, arc count, then each arc's endpoints in arc-index
// order, all big-endian fixed-width) to buf and returns the extended
// slice.
func (inst *Instance) AppendSketch(buf []byte) []byte {
	buf = append(buf, sketchVersion...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(inst.G.NumNodes()))
	m := inst.G.NumEdges()
	buf = binary.BigEndian.AppendUint64(buf, uint64(m))
	for e := 0; e < m; e++ {
		ed := inst.G.Edge(e)
		buf = binary.BigEndian.AppendUint64(buf, uint64(ed.From))
		buf = binary.BigEndian.AppendUint64(buf, uint64(ed.To))
	}
	return buf
}

// Sketch returns the hex-encoded SHA-256 of the instance's sketch
// encoding: the coarse topology-only identity the solve store indexes
// neighbors under.  Equal sketches mean identical node/arc counts and
// identical per-index arc endpoints, so flows transfer index-wise; the
// duration functions are deliberately excluded.
func (inst *Instance) Sketch() string {
	sum := sha256.Sum256(inst.AppendSketch(nil))
	return hex.EncodeToString(sum[:])
}

// Sketch returns the instance's structural sketch (Instance.Sketch),
// computed once and cached on the compiled form.
func (c *Compiled) Sketch() string {
	c.sketchOnce.Do(func() { c.sketch = c.Inst.Sketch() })
	return c.sketch
}

// InstanceDiff reports how two compiled instances differ.  It is only
// meaningful between instances; the zero value means "nothing in common".
type InstanceDiff struct {
	// SameTopology is true when both instances have identical node and arc
	// counts and identical per-index arc endpoints — the precondition for
	// transferring a flow from one to the other arc by arc.
	SameTopology bool
	// TouchedArcs lists, in increasing arc-index order, the arcs whose
	// duration breakpoint tables differ.  Empty with SameTopology means
	// the instances are solve-equivalent (same canonical hash).
	TouchedArcs []int
	// TouchedBreakpoints counts the differing breakpoint positions across
	// all touched arcs: positions where the tuples disagree, plus the
	// length difference when one table is longer.  It sizes the delta more
	// finely than len(TouchedArcs) when tables are reshaped wholesale.
	TouchedBreakpoints int
}

// Diff compares two compiled instances positionally: same topology or
// not, and which arcs' duration tables changed.  It is O(m + total
// breakpoints) and allocates only the touched-arc list.  It is the
// reference implementation of DiffDigests, which the warm-start path uses
// to count a stored neighbor's touched arcs from digests alone.
func Diff(a, b *Compiled) InstanceDiff {
	var d InstanceDiff
	if a.Inst.G.NumNodes() != b.Inst.G.NumNodes() || len(a.ArcFrom) != len(b.ArcFrom) {
		return d
	}
	if a.Inst.Source != b.Inst.Source || a.Inst.Sink != b.Inst.Sink {
		return d
	}
	for e := range a.ArcFrom {
		if a.ArcFrom[e] != b.ArcFrom[e] || a.ArcTo[e] != b.ArcTo[e] {
			return d
		}
	}
	d.SameTopology = true
	for e := range a.Tuples {
		ta, tb := a.Tuples[e], b.Tuples[e]
		diff := 0
		for i := 0; i < len(ta) && i < len(tb); i++ {
			if ta[i] != tb[i] {
				diff++
			}
		}
		if len(ta) > len(tb) {
			diff += len(ta) - len(tb)
		} else {
			diff += len(tb) - len(ta)
		}
		if diff > 0 {
			d.TouchedArcs = append(d.TouchedArcs, e)
			d.TouchedBreakpoints += diff
		}
	}
	return d
}

// Per-arc digests.
//
// Stores persist ArcDigests vectors (store.Meta.Arcs), so the function is
// part of their on-disk format: a changed definition would silently
// mis-count touched arcs against every vector already stored.  Arc e's
// digest is computed over its canonical tuples c.Tuples[e], the tables
// Diff compares, so equivalent specs (a "kway" and its explicit "step")
// digest alike.  In 64-bit unsigned arithmetic, one word at a time:
//
//	h = digestSeed ^ len(tuples)
//	for each tuple (R, T), for w in R, T:
//	    h = rotl64((h ^ w) * digestMul, 31)
//	digest = high 32 bits of fmix64(h)   // MurmurHash3's finalizer
//
// Each step is a bijection of h for a fixed word, so two equal-length
// tables that differ in a single word never share the 64-bit state; only
// the truncation to 32 bits can collide.  TestArcDigestsGolden pins the
// definition.
const (
	digestSeed = 0x9e3779b97f4a7c15
	digestMul  = 0x87c37b91114253d5
)

// ArcDigests returns one 32-bit digest per arc of c's breakpoint tables,
// in arc-index order (see the definition above).  It is computed afresh
// on every call, in O(m + total breakpoints).
func (c *Compiled) ArcDigests() []uint32 {
	out := make([]uint32, len(c.Tuples))
	for e, ts := range c.Tuples {
		h := uint64(digestSeed) ^ uint64(len(ts))
		for _, tp := range ts {
			h = bits.RotateLeft64((h^uint64(tp.R))*digestMul, 31)
			h = bits.RotateLeft64((h^uint64(tp.T))*digestMul, 31)
		}
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		h ^= h >> 33
		out[e] = uint32(h >> 32)
	}
	return out
}

// DiffDigests counts the positions at which two ArcDigests vectors
// differ: for two same-topology instances, len(Diff(a, b).TouchedArcs)
// computed from their digests alone, undercounting only where a touched
// arc's digests collide.  ok is false when the lengths differ, since the
// vectors then cannot describe index-aligned arcs.
func DiffDigests(a, b []uint32) (touched int, ok bool) {
	if len(a) != len(b) {
		return 0, false
	}
	for i := range a {
		if a[i] != b[i] {
			touched++
		}
	}
	return touched, true
}
