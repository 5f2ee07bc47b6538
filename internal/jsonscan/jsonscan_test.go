package jsonscan

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// TestSkipAgreesWithValid checks the validating skip against json.Valid
// on well-formed and malformed documents, nesting limit included.
func TestSkipAgreesWithValid(t *testing.T) {
	docs := []string{
		`{}`, `[]`, `""`, `0`, `-0`, `1.5e-3`, `true`, `false`, `null`,
		`{"a":[1,{"b":null},"cé\n"],"d":{}}`, " \t\n\r[ 1 , 2 ]\n",
		"\"\xff\x80\"", `"\ud800"`,
		``, ` `, `{`, `[1,]`, `{"a":1,}`, `{"a" 1}`, `{1:2}`, `[1 2]`, `01`, `1.`, `.5`, `1e`, `1e+`,
		`-`, `--1`, `+1`, `tru`, `nul`, `falsey`, `"abc`, `"\x"`, `"\u12g4"`, "\"\x01\"", `}`, `]`,
		`{"a":1}}`, `[1]x`, `"a" "b"`,
		strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth),
		strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1),
		strings.Repeat(`{"a":`, maxDepth) + "1" + strings.Repeat("}", maxDepth),
		strings.Repeat(`{"a":`, maxDepth+1) + "1" + strings.Repeat("}", maxDepth+1),
	}
	for _, doc := range docs {
		s := New([]byte(doc))
		s.Skip()
		err := s.End()
		if want := json.Valid([]byte(doc)); (err == nil) != want {
			t.Errorf("%.40q: scanner error %v, json.Valid %v", doc, err, want)
		}
	}
}

// TestStringUnescapes checks string decoding against encoding/json:
// escapes, surrogate pairs, unpaired surrogates and invalid UTF-8.
func TestStringUnescapes(t *testing.T) {
	lits := []string{
		`""`, `"plain"`, `"\"\\\/\b\f\n\r\t"`, `"é世"`, `"😀"`,
		`"\ud83d"`, `"\ude00"`, `"\ud83dx"`, `"\ud83dA"`, `"\ud83d😀"`,
		"\"caf\xc3\xa9\"", "\"\xff\"", "\"\xed\xa0\x80\"", "\"a\xc3\"", "\"\xef\xbf\xbd\"",
	}
	for _, lit := range lits {
		var want string
		if err := json.Unmarshal([]byte(lit), &want); err != nil {
			t.Fatalf("%q: %v", lit, err)
		}
		var got string
		s := New([]byte(lit))
		s.String(&got)
		if err := s.End(); err != nil || got != want {
			t.Errorf("%q: got %q (%v), want %q", lit, got, err, want)
		}
	}
}

// TestIntegers checks Int64 against encoding/json on the integer edge
// cases: signs, the int64 range, fractions and exponents, and null.
func TestIntegers(t *testing.T) {
	nums := []string{
		`0`, `-0`, `7`, `-7`, `9223372036854775807`, `-9223372036854775808`,
		`9223372036854775808`, `-9223372036854775809`, `99999999999999999999`,
		`1.0`, `1e3`, `1E3`, `-1.5`, `null`, `"1"`, `true`, `[]`,
	}
	for _, num := range nums {
		want, got := int64(42), int64(42)
		werr := json.Unmarshal([]byte(num), &want)
		s := New([]byte(num))
		s.Int64(&got)
		gerr := s.End()
		if (werr == nil) != (gerr == nil) || werr == nil && got != want {
			t.Errorf("%s: got %d (%v), want %d (%v)", num, got, gerr, want, werr)
		}
	}
}

// TestIsFolds checks key matching against bytes.EqualFold, which is how
// encoding/json matches keys to field names.
func TestIsFolds(t *testing.T) {
	keys := []string{
		`"nodes"`, `"NODES"`, `"Nodes"`, `"node"`, `"nodess"`, `"nodeſ"`, `"nodeſſ"`, `"\u006eodes"`, `"\u004eODE\u017f"`,
		`"kind"`, `"Kind"`, `"Kind"`, `"ḱind"`, `"max_nodes"`, `"MAX_NODES"`, `"max-nodes"`,
		`"t0"`, `"T0"`, `"t٠"`, "\"nodes\xff\"",
	}
	names := []string{"nodes", "kind", "max_nodes", "t0"}
	for _, key := range keys {
		s := New([]byte("{" + key + ":1}"))
		if !s.Object() {
			t.Fatalf("%s: %v", key, s.Err())
		}
		var unquoted string
		if err := json.Unmarshal([]byte(key), &unquoted); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if got, want := s.Is(name), bytes.EqualFold([]byte(unquoted), []byte(name)); got != want {
				t.Errorf("key %s, name %q: Is %v, EqualFold %v", key, name, got, want)
			}
		}
	}
}

// TestSliceDecodesInPlace decodes a run of arrays into one slice, with
// Slice and with encoding/json, and checks the two agree after each:
// elements are decoded into in place, ones a longer array left beyond the
// length come back, and [] and null drop them.
func TestSliceDecodesInPlace(t *testing.T) {
	docs := []string{`[1,2,3]`, `[9]`, `[7,null,null,null]`, `[]`, `[null,null]`, `[5,6,7]`, `null`, `[null]`, `[8]`}
	var want, got []int
	for _, doc := range docs {
		if err := json.Unmarshal([]byte(doc), &want); err != nil {
			t.Fatal(err)
		}
		s := New([]byte(doc))
		Slice(s, &got, s.Int)
		if err := s.End(); err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("after %s: got %#v, want %#v", doc, got, want)
		}
	}
}
