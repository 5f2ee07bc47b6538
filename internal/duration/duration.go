// Package duration implements the three duration-function classes of
// Das et al. (SPAA 2019), Section 2: general non-increasing step functions
// (Equation 1), k-way splitting (Equation 2), and recursive binary splitting
// (Equation 3).
//
// A duration function maps an integral amount of resource r >= 0 allocated
// to a job to the (integral) time the job then takes.  All functions here
// are non-increasing in r.  Every function exposes its canonical
// resource-time tuples <r_i, t_i>: the minimal set of breakpoints with
// r_1 = 0, r_i strictly increasing and t_i strictly decreasing, such that
// Eval(r) = t_i for the largest i with r_i <= r.  The tuples are the input
// to the LP relaxation of Section 3.1.
package duration

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Tuple is one resource-time breakpoint <R, T>: with R units of resource the
// job completes in T time.
type Tuple struct {
	R int64 `json:"r"`
	T int64 `json:"t"`
}

// Func is a non-increasing duration function of an integral resource amount.
type Func interface {
	// Eval returns the job duration when r units of resource are used.
	Eval(r int64) int64
	// Tuples returns the canonical breakpoints (see package comment).
	// The returned slice must not be modified.
	Tuples() []Tuple
	// String returns a compact human-readable description.
	String() string
}

// envelope normalizes a breakpoint list: it sorts by R (inputs here are
// already sorted), keeps only strictly time-improving tuples, and guarantees
// the first tuple has R = 0.  The result is the minimal representation of
// the lower step envelope.
func envelope(in []Tuple) []Tuple {
	out := make([]Tuple, 0, len(in))
	for _, tp := range in {
		if len(out) == 0 {
			out = append(out, tp)
			continue
		}
		last := out[len(out)-1]
		if tp.R == last.R {
			if tp.T < last.T {
				out[len(out)-1] = tp
			}
			continue
		}
		if tp.T < last.T {
			out = append(out, tp)
		}
	}
	return out
}

func evalTuples(tuples []Tuple, r int64) int64 {
	// Tuples are few (typically O(log t0) or O(sqrt t0)); linear scan is
	// faster than binary search at these sizes and trivially correct.
	t := tuples[0].T
	for _, tp := range tuples[1:] {
		if tp.R > r {
			break
		}
		t = tp.T
	}
	return t
}

func tuplesString(kind string, tuples []Tuple) string {
	var b strings.Builder
	b.WriteString(kind)
	b.WriteByte('{')
	for i, tp := range tuples {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "<%d,%d>", tp.R, tp.T)
	}
	b.WriteByte('}')
	return b.String()
}

// Constant is a duration function that ignores resources entirely (a job
// with a single resource-time tuple <0, T>).  Dummy arcs in the
// activity-on-arc transformation use Constant(0).
type Constant int64

// Eval implements Func.
func (c Constant) Eval(r int64) int64 { return int64(c) }

// Tuples implements Func.
func (c Constant) Tuples() []Tuple { return []Tuple{{R: 0, T: int64(c)}} }

// String implements Func.
func (c Constant) String() string { return fmt.Sprintf("const{%d}", int64(c)) }

// Step is a general non-increasing step function given by explicit
// resource-time tuples (Equation 1).
type Step struct {
	tuples []Tuple
}

// NewStep builds a Step from breakpoints.  The input must be non-empty,
// start at R = 0, have strictly increasing R and non-increasing T; tuples
// that do not strictly improve T are dropped (they are redundant under
// Equation 1).  Negative resources or times are rejected.
func NewStep(tuples []Tuple) (*Step, error) {
	if len(tuples) == 0 {
		return nil, errors.New("duration: step function needs at least one tuple")
	}
	if tuples[0].R != 0 {
		return nil, fmt.Errorf("duration: first tuple must have R = 0, got R = %d", tuples[0].R)
	}
	for i, tp := range tuples {
		if tp.R < 0 || tp.T < 0 {
			return nil, fmt.Errorf("duration: tuple %d is negative: %+v", i, tp)
		}
		if i > 0 {
			if tp.R <= tuples[i-1].R {
				return nil, fmt.Errorf("duration: tuple resources must strictly increase (tuple %d)", i)
			}
			if tp.T > tuples[i-1].T {
				return nil, fmt.Errorf("duration: tuple times must be non-increasing (tuple %d)", i)
			}
		}
	}
	return &Step{tuples: envelope(tuples)}, nil
}

// MustStep is NewStep that panics on error; intended for literals in tests
// and gadget constructions.
func MustStep(tuples ...Tuple) *Step {
	s, err := NewStep(tuples)
	if err != nil {
		panic(err)
	}
	return s
}

// Eval implements Func.
func (s *Step) Eval(r int64) int64 { return evalTuples(s.tuples, r) }

// Tuples implements Func.
func (s *Step) Tuples() []Tuple { return s.tuples }

// String implements Func.
func (s *Step) String() string { return tuplesString("step", s.tuples) }

// isqrt returns floor(sqrt(x)) for x >= 0.
func isqrt(x int64) int64 {
	if x < 0 {
		return 0
	}
	r := int64(math.Sqrt(float64(x)))
	for r*r > x {
		r--
	}
	for (r+1)*(r+1) <= x {
		r++
	}
	return r
}

// KWay is the k-way splitting duration function of Equation 2 for a job
// whose zero-resource duration is T0 (in the race application, T0 is the
// in-degree of the memory cell).  With k units of extra space,
// 2 <= k <= floor(sqrt(T0)), the writes are split across k cells and the
// duration becomes ceil(T0/k) + k; beyond floor(sqrt(T0)) more space does
// not help.
type KWay struct {
	t0     int64
	tuples []Tuple
}

// NewKWay builds the k-way splitting function for zero-resource duration t0.
func NewKWay(t0 int64) *KWay {
	if t0 < 0 {
		t0 = 0
	}
	raw := []Tuple{{R: 0, T: t0}}
	for k := int64(2); k <= isqrt(t0); k++ {
		raw = append(raw, Tuple{R: k, T: ceilDiv(t0, k) + k})
	}
	return &KWay{t0: t0, tuples: envelope(raw)}
}

// T0 returns the zero-resource duration.
func (f *KWay) T0() int64 { return f.t0 }

// Eval implements Func.  It matches Equation 2: values of r between
// breakpoints round down to the previous breakpoint, and r beyond
// floor(sqrt(T0)) saturates.
func (f *KWay) Eval(r int64) int64 { return evalTuples(f.tuples, r) }

// Tuples implements Func.
func (f *KWay) Tuples() []Tuple { return f.tuples }

// String implements Func.
func (f *KWay) String() string { return fmt.Sprintf("kway{t0=%d}", f.t0) }

// log2log2e = log2(log2(e)); the paper caps the useful reducer height at
// k = floor(log2 t0 - log2 log2 e), the maximizer of Equation 3.
const log2log2e = 0.5287663729448977

// RecursiveBinary is the recursive binary splitting duration function of
// Equation 3 for a job with zero-resource duration T0.  With 2^i units of
// space (a binary reducer with 2^i leaves, Figure 2), the duration becomes
// ceil(T0/2^i) + i + 1 for 1 <= i <= K, K = floor(log2 T0 - log2 log2 e).
//
// Note on the paper text: Equation 3 writes the range as 2 <= i <= k, but
// Section 3.3 and the height-1 reducer of Figure 2 (time ceil(n/2) + 2) use
// the same formula at i = 1; we therefore include i = 1, which matches the
// tuple lists used throughout Sections 3.3 and 4.2.
type RecursiveBinary struct {
	t0     int64
	tuples []Tuple
}

// NewRecursiveBinary builds the recursive binary splitting function for
// zero-resource duration t0.
func NewRecursiveBinary(t0 int64) *RecursiveBinary {
	if t0 < 0 {
		t0 = 0
	}
	raw := []Tuple{{R: 0, T: t0}}
	if t0 >= 2 {
		k := int64(math.Floor(math.Log2(float64(t0)) - log2log2e))
		for i := int64(1); i <= k; i++ {
			raw = append(raw, Tuple{R: 1 << uint(i), T: ceilDiv(t0, 1<<uint(i)) + i + 1})
		}
	}
	return &RecursiveBinary{t0: t0, tuples: envelope(raw)}
}

// T0 returns the zero-resource duration.
func (f *RecursiveBinary) T0() int64 { return f.t0 }

// MaxHeight returns the largest reducer height represented by a breakpoint,
// i.e. the height beyond which the paper's analysis shows no improvement.
func (f *RecursiveBinary) MaxHeight() int64 {
	last := f.tuples[len(f.tuples)-1].R
	var h int64
	for (int64(1) << uint(h+1)) <= last {
		h++
	}
	if last < 2 {
		return 0
	}
	return h
}

// Eval implements Func: r in [2^i, 2^(i+1)) yields the height-i duration,
// and r beyond the last breakpoint saturates (Equation 3).
func (f *RecursiveBinary) Eval(r int64) int64 { return evalTuples(f.tuples, r) }

// Tuples implements Func.
func (f *RecursiveBinary) Tuples() []Tuple { return f.tuples }

// String implements Func.
func (f *RecursiveBinary) String() string { return fmt.Sprintf("binary{t0=%d}", f.t0) }

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// MaxUsefulResource returns the largest resource amount that still changes
// the value of f, i.e. the R of the last breakpoint.
func MaxUsefulResource(f Func) int64 {
	ts := f.Tuples()
	return ts[len(ts)-1].R
}
