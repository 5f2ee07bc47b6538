package duration

// Class detection: given the duration functions of an instance, decide
// which of the paper's Section 2 classes they all belong to, so a
// portfolio solver can dispatch to the approximation algorithm whose
// guarantee applies (KWay5 needs k-way splitting, Binary4 and
// BinaryBiCriteria need recursive binary splitting; BiCriteria accepts
// any non-increasing step function).
//
// Detection is structural, not nominal: a Step function whose breakpoints
// coincide with NewKWay(t0) counts as k-way.  This matters because
// instances loaded from JSON may serialize any function as explicit
// tuples, and the guarantee depends only on the tuple structure.

// tuplesEqual reports whether two canonical breakpoint lists coincide.
func tuplesEqual(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Matches reports whether f belongs to the duration class named by kind
// (KindConst, KindKWay, KindBinary or KindStep).  Constant functions
// (a single breakpoint) are members of every class: they are the
// degenerate case of Equations 2 and 3 with no useful splitting, and
// every class contains them.
func Matches(f Func, kind string) bool {
	ts := f.Tuples()
	if len(ts) == 1 {
		return true
	}
	switch kind {
	case KindConst:
		return false // more than one breakpoint
	case KindKWay:
		return matchesKWay(ts)
	case KindBinary:
		// O(log t0) tuples; materializing the canonical list is cheap.
		return tuplesEqual(ts, NewRecursiveBinary(ts[0].T).Tuples())
	default:
		return kind == KindStep
	}
}

// matchesKWay reports whether ts equals the canonical k-way breakpoint
// list for t0 = ts[0].T.  The canonical list has O(sqrt t0) entries, so
// it is generated lazily and compared incrementally: a non-k-way step
// function is rejected after the matching prefix instead of paying the
// full construction (which matters when classifying JSON-loaded
// instances with large durations before any solving starts).
func matchesKWay(ts []Tuple) bool {
	t0 := ts[0].T
	i := 1
	lastT := t0
	for k := int64(2); k <= isqrt(t0); k++ {
		t := ceilDiv(t0, k) + k
		if t >= lastT {
			continue // the envelope drops non-improving tuples
		}
		if i >= len(ts) || ts[i] != (Tuple{R: k, T: t}) {
			return false
		}
		lastT = t
		i++
	}
	return i == len(ts)
}

// Classify returns the most specific class kind covering every function:
// KindConst if all are constant, else KindBinary if all are recursive
// binary splitting (or constant), else KindKWay if all are k-way
// splitting (or constant), else KindStep.
func Classify(fns []Func) string {
	allConst, allKWay, allBinary := true, true, true
	for _, f := range fns {
		if allConst && len(f.Tuples()) > 1 {
			allConst = false
		}
		if allKWay && !Matches(f, KindKWay) {
			allKWay = false
		}
		if allBinary && !Matches(f, KindBinary) {
			allBinary = false
		}
		if !allKWay && !allBinary {
			return KindStep
		}
	}
	switch {
	case allConst:
		return KindConst
	case allBinary:
		return KindBinary
	case allKWay:
		return KindKWay
	default:
		return KindStep
	}
}
