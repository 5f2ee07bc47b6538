package duration

import "testing"

// TestClassOf checks the class of a single function: Classify of a
// one-function slice.
func TestClassOf(t *testing.T) {
	tests := []struct {
		name string
		fn   Func
		want string
	}{
		{"constant", Constant(7), KindConst},
		{"kway", NewKWay(30), KindKWay},
		{"binary", NewRecursiveBinary(32), KindBinary},
		{"step", MustStep(Tuple{R: 0, T: 9}, Tuple{R: 1, T: 4}), KindStep},
		{"saturating-kway", NewKWay(3), KindConst}, // no useful split
	}
	for _, tc := range tests {
		if got := Classify([]Func{tc.fn}); got != tc.want {
			t.Errorf("%s: Classify = %q; want %q", tc.name, got, tc.want)
		}
	}
}

func TestClassOfIsStructural(t *testing.T) {
	// A Step whose breakpoints coincide with NewKWay(30) must be detected
	// as k-way: JSON round-trips may serialize any function as tuples.
	asStep, err := NewStep(NewKWay(30).Tuples())
	if err != nil {
		t.Fatal(err)
	}
	if got := Classify([]Func{asStep}); got != KindKWay {
		t.Fatalf("Classify(step-encoded kway) = %q; want %q", got, KindKWay)
	}
	asStep, err = NewStep(NewRecursiveBinary(64).Tuples())
	if err != nil {
		t.Fatal(err)
	}
	if got := Classify([]Func{asStep}); got != KindBinary {
		t.Fatalf("Classify(step-encoded binary) = %q; want %q", got, KindBinary)
	}
}

func TestClassify(t *testing.T) {
	step := MustStep(Tuple{R: 0, T: 9}, Tuple{R: 1, T: 4})
	tests := []struct {
		name string
		fns  []Func
		want string
	}{
		{"all-kway", []Func{NewKWay(30), NewKWay(50)}, KindKWay},
		{"kway-with-const", []Func{NewKWay(30), Constant(0)}, KindKWay},
		{"all-binary", []Func{NewRecursiveBinary(32), NewRecursiveBinary(64)}, KindBinary},
		{"mixed-classes", []Func{NewKWay(30), NewRecursiveBinary(32)}, KindStep},
		{"general", []Func{step, NewKWay(30)}, KindStep},
		{"all-const", []Func{Constant(3), Constant(0)}, KindConst},
	}
	for _, tc := range tests {
		if got := Classify(tc.fns); got != tc.want {
			t.Errorf("%s: Classify = %q; want %q", tc.name, got, tc.want)
		}
	}
}
