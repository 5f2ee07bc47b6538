package lp

import "sync"

// workspace is the pooled scratch of one simplex solve: the tableau rows,
// the objective and reduced-cost rows, the basis and the pivot's
// nonzero-column index list all carve slices out of two flat arenas (one
// of float64s, one of ints) sized once per solve.  Solving the same
// relaxation shape repeatedly - the approximation pipeline does, and
// rtserve's workers do it for a living - reuses the arenas, so a
// steady-state solve performs a constant number of allocations regardless
// of problem size, and the zero-skipping pivot needs no allocation of its
// own.
//
// Handed-out slices alias the arena, so nothing taken from a workspace may
// outlive the solve: Solution.X is copied out before release.  The pool
// gives each worker goroutine its own workspace in the steady state (the
// same per-worker reuse pattern as flow.MinFlowSolver), while letting the
// runtime reclaim the arenas under memory pressure.
type workspace struct {
	arena []float64
	ints  []int
	rows  [][]float64
	fOff  int
	iOff  int
	rOff  int
}

var wsPool = sync.Pool{New: func() any { return new(workspace) }}

// prepare sizes the arenas for a solve needing at most nFloat float64s,
// nInt ints and nRow row headers, zeroes the float arena (rows rely on
// zero initialization), and resets the carve-out cursors.
func (w *workspace) prepare(nFloat, nInt, nRow int) {
	if cap(w.arena) < nFloat {
		w.arena = make([]float64, nFloat)
	}
	w.arena = w.arena[:nFloat]
	for i := range w.arena {
		w.arena[i] = 0
	}
	if cap(w.ints) < nInt {
		w.ints = make([]int, nInt)
	}
	w.ints = w.ints[:nInt]
	if cap(w.rows) < nRow {
		w.rows = make([][]float64, nRow)
	}
	w.rows = w.rows[:nRow]
	w.fOff, w.iOff, w.rOff = 0, 0, 0
}

// floats carves a zeroed slice of n float64s out of the arena.
func (w *workspace) floats(n int) []float64 {
	s := w.arena[w.fOff : w.fOff+n : w.fOff+n]
	w.fOff += n
	return s
}

// intSlice carves a slice of n ints out of the int arena.
func (w *workspace) intSlice(n int) []int {
	s := w.ints[w.iOff : w.iOff+n : w.iOff+n]
	w.iOff += n
	return s
}

// rowSlice carves a slice of n row headers.
func (w *workspace) rowSlice(n int) [][]float64 {
	s := w.rows[w.rOff : w.rOff+n : w.rOff+n]
	w.rOff += n
	return s
}
