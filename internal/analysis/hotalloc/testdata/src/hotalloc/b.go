package hotalloc

import (
	"fmt"
	"sync/atomic"
)

// This file extends the corpus with the parallel hot-path shapes the
// solver's raw-speed tier runs: work-stealing deque operations, a
// level-sweep kernel, and an arena-backed wire encoder.  Each has a
// clean form (everything the analyzer must accept: atomics, slot
// stores, append into fields and caller buffers) and a regression twin
// exhibiting how each path realistically rots (materializing tasks per
// push, growing rings inline, formatting in the steal loop, encoding
// through fmt).

// job stands in for a shed search subtree.
type job struct {
	level []int
}

// ring is a fixed-size power-of-two slot array of a Chase-Lev deque.
type ring struct {
	mask int64
	slot []atomic.Pointer[job]
}

// wsDeque is the corpus double of the exact search's per-worker deque.
type wsDeque struct {
	top, bottom atomic.Int64
	ring        atomic.Pointer[ring]
	grow        func(r *ring, b, t int64) *ring
}

// push is the clean owner-side push: atomic loads, a slot store, a
// bottom bump, and an out-of-line grow call — nothing allocates here.
//
//rt:hotpath — corpus: the accepted deque shapes.
func (d *wsDeque) push(tk *job) {
	b := d.bottom.Load()
	t := d.top.Load()
	r := d.ring.Load()
	if b-t >= int64(len(r.slot)) {
		r = d.grow(r, b, t)
	}
	r.slot[b&r.mask].Store(tk)
	d.bottom.Store(b + 1)
}

// steal is the clean thief side: loads plus one CAS arbitration.
//
//rt:hotpath — corpus: the accepted steal shapes.
func (d *wsDeque) steal() *job {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil
	}
	r := d.ring.Load()
	tk := r.slot[t&r.mask].Load()
	if !d.top.CompareAndSwap(t, t+1) {
		return nil
	}
	return tk
}

// pushFresh is how deque code rots: materializing the task and growing
// the ring at the push site instead of recycling through pools and the
// out-of-line grow.
//
//rt:hotpath — corpus: per-push materialization must be diagnosed.
func (d *wsDeque) pushFresh(level []int) {
	tk := &job{} // want `address-taken composite literal allocates`
	var snapshot []int
	snapshot = append(snapshot, level...)     // want `append to a non-reused destination allocates`
	bigger := make([]atomic.Pointer[job], 64) // want `make allocates`
	_ = bigger
	tk.level = snapshot
	d.push(tk)
}

// sweeper is the corpus double of the level-sweep kernel's per-worker
// scratch: slot-indexed DP arrays owned by one worker.
type sweeper struct {
	dur []float64
	et  []float64
}

// sweepLevel is the clean kernel: pure index arithmetic over owned
// scratch, max reductions, no allocation of any kind.
//
//rt:hotpath — corpus: the accepted sweep shapes.
func (s *sweeper) sweepLevel(first, last int, pred []int32) float64 {
	best := 0.0
	for slot := first; slot < last; slot++ {
		v := s.et[pred[slot]] + s.dur[slot]
		if v > s.et[slot] {
			s.et[slot] = v
		}
		if v > best {
			best = v
		}
	}
	return best
}

// sweepTraced is the rotted kernel: per-slot tracing boxes and formats
// on the innermost loop.
//
//rt:hotpath — corpus: tracing in the kernel must be diagnosed.
func (s *sweeper) sweepTraced(first, last int, trace func(any)) {
	for slot := first; slot < last; slot++ {
		trace(slot)                         // want `argument boxed into interface parameter`
		msg := fmt.Sprintf("slot %d", slot) // want `fmt call allocates`
		_ = msg
	}
}

// arena is the corpus double of a pre-encoded response arena: a body
// appended into the caller's reused buffer.
type arena struct {
	body []byte
}

// encode is the clean encoder: append into the caller-provided
// destination, length prefix written by index, no copies.
//
//rt:hotpath — corpus: the accepted encoder shapes.
func (a *arena) encode(dst []byte) []byte {
	dst = append(dst, a.body...)
	dst = append(dst, '\n')
	return dst
}

// encodeFormatted is the rotted encoder: building the response through
// string conversion and fmt instead of the pre-encoded arena bytes.
//
//rt:hotpath — corpus: formatting encoders must be diagnosed.
func (a *arena) encodeFormatted(dst []byte, status int) []byte {
	header := fmt.Sprintf("status %d", status) // want `fmt call allocates`
	dst = append(dst, []byte(header)...)       // want `string/\[\]byte conversion copies`
	dst = append(dst, string(a.body)...)       // want `string/\[\]byte conversion copies`
	return dst
}
