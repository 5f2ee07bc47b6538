package duration

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

func TestConstant(t *testing.T) {
	c := Constant(5)
	for _, r := range []int64{0, 1, 100} {
		if c.Eval(r) != 5 {
			t.Fatalf("Eval(%d) = %d; want 5", r, c.Eval(r))
		}
	}
	if got := c.Tuples(); len(got) != 1 || got[0] != (Tuple{0, 5}) {
		t.Fatalf("Tuples = %v", got)
	}
	if c.String() != "const{5}" {
		t.Fatalf("String = %q", c.String())
	}
}

func TestNewStepValidation(t *testing.T) {
	cases := []struct {
		name   string
		tuples []Tuple
		ok     bool
	}{
		{"empty", nil, false},
		{"nonzero first R", []Tuple{{1, 5}}, false},
		{"negative time", []Tuple{{0, -1}}, false},
		{"decreasing R", []Tuple{{0, 5}, {3, 2}, {2, 1}}, false},
		{"increasing T", []Tuple{{0, 5}, {2, 7}}, false},
		{"single", []Tuple{{0, 5}}, true},
		{"two", []Tuple{{0, 5}, {2, 1}}, true},
		{"plateau allowed in input", []Tuple{{0, 5}, {2, 5}, {3, 1}}, true},
	}
	for _, c := range cases {
		_, err := NewStep(c.tuples)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v; want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestStepEnvelopeDropsPlateaus(t *testing.T) {
	s := MustStep(Tuple{0, 5}, Tuple{2, 5}, Tuple{3, 1})
	got := s.Tuples()
	if len(got) != 2 || got[0] != (Tuple{0, 5}) || got[1] != (Tuple{3, 1}) {
		t.Fatalf("Tuples = %v; want [{0 5} {3 1}]", got)
	}
}

func TestStepEval(t *testing.T) {
	s := MustStep(Tuple{0, 10}, Tuple{2, 6}, Tuple{5, 0})
	cases := map[int64]int64{0: 10, 1: 10, 2: 6, 3: 6, 4: 6, 5: 0, 99: 0}
	for r, want := range cases {
		if got := s.Eval(r); got != want {
			t.Errorf("Eval(%d) = %d; want %d", r, got, want)
		}
	}
}

// TestKWayMatchesEquation2 checks Eval against the closed form of
// Equation 2 pointwise.
func TestKWayMatchesEquation2(t *testing.T) {
	for _, t0 := range []int64{0, 1, 2, 3, 4, 9, 10, 16, 17, 100, 101, 1000} {
		f := NewKWay(t0)
		cap := isqrt(t0)
		for r := int64(0); r <= cap+5; r++ {
			want := equation2(t0, r, cap)
			if got := f.Eval(r); got != want {
				t.Fatalf("t0=%d: Eval(%d) = %d; want %d", t0, r, got, want)
			}
		}
	}
}

// equation2 is a literal transcription of Equation 2, made non-increasing
// by taking the running minimum over k' <= k (the canonical envelope; the
// raw formula ceil(t0/k)+k is already non-increasing for k <= sqrt(t0) up
// to ceiling effects).
func equation2(t0, k, cap int64) int64 {
	best := t0
	if k > cap {
		k = cap
	}
	for kk := int64(2); kk <= k; kk++ {
		if v := (t0+kk-1)/kk + kk; v < best {
			best = v
		}
	}
	return best
}

func TestKWayExamples(t *testing.T) {
	f := NewKWay(100)
	if f.Eval(0) != 100 || f.Eval(1) != 100 {
		t.Fatal("k in {0,1} must not improve duration")
	}
	if got := f.Eval(10); got != 20 { // ceil(100/10)+10
		t.Fatalf("Eval(10) = %d; want 20", got)
	}
	if got := f.Eval(1000); got != 20 { // saturates at k = sqrt(100)
		t.Fatalf("Eval(1000) = %d; want 20", got)
	}
	if f.T0() != 100 {
		t.Fatalf("T0 = %d", f.T0())
	}
}

// TestBinaryMatchesEquation3 checks Eval against Equation 3's closed form
// (with the i >= 1 reading; see the type comment).
func TestBinaryMatchesEquation3(t *testing.T) {
	for _, t0 := range []int64{0, 1, 2, 3, 4, 5, 8, 9, 16, 64, 100, 1000} {
		f := NewRecursiveBinary(t0)
		var k int64
		if t0 >= 2 {
			k = int64(math.Floor(math.Log2(float64(t0)) - log2log2e))
		}
		for r := int64(0); r <= 4096; r = r*2 + 1 {
			want := equation3(t0, r, k)
			if got := f.Eval(r); got != want {
				t.Fatalf("t0=%d: Eval(%d) = %d; want %d", t0, r, got, want)
			}
		}
	}
}

// equation3 evaluates the running-minimum envelope of Equation 3.
func equation3(t0, r, k int64) int64 {
	best := t0
	for i := int64(1); i <= k; i++ {
		if (int64(1) << uint(i)) > r {
			break
		}
		if v := ceilDiv(t0, 1<<uint(i)) + i + 1; v < best {
			best = v
		}
	}
	return best
}

func TestBinaryExamples(t *testing.T) {
	// Figure 2: a height-2 reducer applies n = 8 updates in
	// ceil(8/4) + 2 + 1 = 5 time using 4 units of space.
	f := NewRecursiveBinary(8)
	if got := f.Eval(4); got != 5 {
		t.Fatalf("Eval(4) = %d; want 5", got)
	}
	// r = 1 never helps; r in [2^i, 2^(i+1)) behaves like 2^i.
	if f.Eval(1) != 8 {
		t.Fatal("Eval(1) should equal t0")
	}
	if f.Eval(2) != f.Eval(3) {
		t.Fatal("Eval(2) and Eval(3) should match (same height)")
	}
	// Small t0 where no height helps: t0 = 4 has ceil(4/2)+2 = 4 = t0.
	small := NewRecursiveBinary(4)
	if len(small.Tuples()) != 1 {
		t.Fatalf("t0=4 should have no useful breakpoints, got %v", small.Tuples())
	}
}

func TestBinaryMaxHeight(t *testing.T) {
	f := NewRecursiveBinary(1000)
	h := f.MaxHeight()
	if h < 1 {
		t.Fatalf("MaxHeight = %d; want >= 1", h)
	}
	// Beyond the max height no improvement occurs.
	if f.Eval(1<<uint(h)) != f.Eval(1<<uint(h+3)) {
		t.Fatal("duration should saturate beyond MaxHeight")
	}
	if NewRecursiveBinary(2).MaxHeight() != 0 {
		t.Fatal("t0=2 has no useful reducer")
	}
}

// Property: every implementation is non-increasing and consistent with its
// own tuples.
func TestFuncsNonIncreasingProperty(t *testing.T) {
	check := func(t0u uint16, r1u, r2u uint16) bool {
		t0 := int64(t0u % 2000)
		r1, r2 := int64(r1u%1024), int64(r2u%1024)
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		for _, f := range []Func{NewKWay(t0), NewRecursiveBinary(t0)} {
			if f.Eval(r1) < f.Eval(r2) {
				return false
			}
			if f.Eval(0) != t0 {
				return false
			}
			tuples := f.Tuples()
			for i, tp := range tuples {
				if f.Eval(tp.R) != tp.T {
					return false
				}
				if i > 0 && (tp.R <= tuples[i-1].R || tp.T >= tuples[i-1].T) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIsqrt(t *testing.T) {
	for x := int64(0); x < 2000; x++ {
		r := isqrt(x)
		if r*r > x || (r+1)*(r+1) <= x {
			t.Fatalf("isqrt(%d) = %d", x, r)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	fns := []Func{
		Constant(7),
		MustStep(Tuple{0, 9}, Tuple{3, 2}),
		NewKWay(50),
		NewRecursiveBinary(64),
	}
	for _, f := range fns {
		spec := ToSpec(f)
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		g, err := FromSpec(back)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for r := int64(0); r <= 70; r++ {
			if f.Eval(r) != g.Eval(r) {
				t.Fatalf("%s: round trip differs at r=%d", f, r)
			}
		}
	}
}

func TestFromSpecErrors(t *testing.T) {
	if _, err := FromSpec(Spec{Kind: "nope"}); err == nil {
		t.Fatal("want error for unknown kind")
	}
	if _, err := FromSpec(Spec{Kind: KindConst, T0: -1}); err == nil {
		t.Fatal("want error for negative const")
	}
	if _, err := FromSpec(Spec{Kind: KindStep}); err == nil {
		t.Fatal("want error for empty step")
	}
}

func TestHelpers(t *testing.T) {
	f := MustStep(Tuple{0, 9}, Tuple{4, 2})
	if MaxUsefulResource(f) != 4 {
		t.Fatalf("MaxUsefulResource = %d", MaxUsefulResource(f))
	}
}

// TestWireKWayCap locks the DoS hardening found by FuzzCanonicalHash: a
// tiny wire document must not be able to materialize a gigabyte of
// breakpoints through an astronomically large kway T0.
func TestWireKWayCap(t *testing.T) {
	if _, err := FromSpec(Spec{Kind: KindKWay, T0: MaxWireKWayT0 + 1}); err == nil {
		t.Fatal("kway spec beyond the wire cap was accepted")
	}
	fn, err := FromSpec(Spec{Kind: KindKWay, T0: MaxWireKWayT0})
	if err != nil {
		t.Fatalf("kway spec at the cap rejected: %v", err)
	}
	if got := fn.Eval(0); got != MaxWireKWayT0 {
		t.Fatalf("Eval(0) = %d", got)
	}
}
