package hotalloc

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// This file extends the corpus with the parallel hot-path shapes the
// solver's raw-speed tier runs: a shared task queue, a level-sweep
// kernel, and an arena-backed wire encoder.  Each has a clean form
// (everything the analyzer must accept: atomics, a mutex, list links,
// append into fields and caller buffers) and a regression twin
// exhibiting how each path realistically rots (materializing tasks per
// push, tracing in the sweep kernel, encoding through fmt).

// job stands in for a shed search subtree.
type job struct {
	level []int
	next  *job
}

// taskQueue is the corpus double of the exact search's shared task
// queue: a FIFO list through the jobs under a mutex, beside an atomic
// count that idle workers poll without the lock.
type taskQueue struct {
	mu         sync.Mutex
	head, tail *job
	queued     atomic.Int32
}

// push is the clean producer side: the lock, a tail link and a count
// bump - nothing allocates here.
//
//rt:hotpath — corpus: the accepted queue shapes.
func (q *taskQueue) push(tk *job) {
	q.mu.Lock()
	if q.tail == nil {
		q.head = tk
	} else {
		q.tail.next = tk
	}
	q.tail = tk
	q.queued.Add(1)
	q.mu.Unlock()
}

// poll is the clean consumer side: an atomic load, the lock only when a
// job waits, and a head unlink.
//
//rt:hotpath — corpus: the accepted poll shapes.
func (q *taskQueue) poll() *job {
	if q.queued.Load() == 0 {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	tk := q.head
	if tk == nil {
		return nil
	}
	q.head, tk.next = tk.next, nil
	if q.head == nil {
		q.tail = nil
	}
	q.queued.Add(-1)
	return tk
}

// pushFresh is how queue code rots: materializing the task and its
// snapshot at the push site, and batching through a fresh slice,
// instead of recycling jobs through a pool.
//
//rt:hotpath — corpus: per-push materialization must be diagnosed.
func (q *taskQueue) pushFresh(level []int) {
	tk := &job{} // want `address-taken composite literal allocates`
	var snapshot []int
	snapshot = append(snapshot, level...) // want `append to a non-reused destination allocates`
	batch := make([]*job, 0, 64)          // want `make allocates`
	_ = batch
	tk.level = snapshot
	q.push(tk)
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
