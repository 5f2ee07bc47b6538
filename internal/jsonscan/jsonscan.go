// Package jsonscan decodes JSON documents of a known shape in one pass,
// without reflection.  The wire decoders of the service (solve bodies)
// and of core (instances) walk a document with a Scanner, reading each
// value straight into their own types, and accept and reject exactly
// what encoding/json accepts and rejects for the same Go types:
//
//   - syntax follows encoding/json's scanner, including its nesting
//     limit of 10,000 containers;
//   - object keys match field names exactly or under Unicode simple case
//     folding, as bytes.EqualFold compares them;
//   - unknown keys are skipped, and a repeated key decodes again into
//     the value already there;
//   - null leaves strings, numbers and structs unchanged and empties
//     slices;
//   - strings are unescaped with invalid UTF-8 and unpaired surrogates
//     replaced by U+FFFD;
//   - integers accept only numbers without a fraction or an exponent
//     that fit their type, and floats follow strconv.ParseFloat.
//
// A Scanner stops at the first error and keeps it: every later call is a
// no-op, and Err reports it.  encoding/json reports a syntax error found
// anywhere in a document before any type error; a Scanner reports
// whichever it meets first, so the two agree on whether a document
// decodes but not always on the message.  The differential fuzz targets
// of internal/core and internal/service hold the two decoders to that
// agreement.
package jsonscan

import (
	"errors"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: a document may hold at most
// this many open objects and arrays at once.
const maxDepth = 10000

// Scanner walks one JSON document.  The zero value is not usable; create
// one with New.
type Scanner struct {
	data  []byte
	pos   int
	depth int
	err   error
	key   []byte // the current object key, unescaped
	// keyEscaped marks a key that held an escape or a byte outside ASCII;
	// any other key is plain ASCII as written.
	keyEscaped bool
	buf        []byte // backing store of escaped keys
	skipping   []byte // the '{' or '[' of each container skipValue is inside
}

// New returns a Scanner positioned before the first value of data.
func New(data []byte) *Scanner { return &Scanner{data: data} }

// Err reports the first error the Scanner met, or nil.
func (s *Scanner) Err() error { return s.err }

// AtEOF skips white space and reports whether nothing else remains.
func (s *Scanner) AtEOF() bool {
	s.ws()
	return s.pos == len(s.data)
}

// End finishes a document decoded as json.Unmarshal decodes one: only
// white space may follow the value.  It returns the Scanner's error.
func (s *Scanner) End() error {
	if s.err == nil && !s.AtEOF() {
		s.syntax("after top-level value")
	}
	return s.err
}

// typeError is a well-formed value of the wrong kind for its destination,
// or a number that does not fit it.
type typeError struct {
	value  string // "string", "number 1.5", "object", ...
	typ    string // what the destination takes: "int64", "string", "object", ...
	offset int    // bytes read before the value
}

func (e *typeError) Error() string {
	return fmt.Sprintf("json: cannot unmarshal %s at offset %d: want %s", e.value, e.offset, e.typ)
}

// Fail records err as the Scanner's error unless it already has one: a
// caller that decodes a value by other means (such as a Raw value handed
// to encoding/json) reports its failure this way.
func (s *Scanner) Fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Slice decodes the next value, an array, into *dst as encoding/json
// decodes one into a slice: decode decodes element i into (*dst)[i].  The
// elements already there are decoded into in place, as for a repeated
// key, and any an earlier, longer array left beyond the length come back
// as they were; an empty array leaves an empty slice and null a nil one.
func Slice[T any](s *Scanner, dst *[]T, decode func(*T)) {
	if s.Null() {
		*dst = nil
		return
	}
	i := 0
	for more := s.array(); more; more = s.elem() {
		*dst = slot(*dst, i)
		decode(&(*dst)[i])
		i++
	}
	if i == 0 {
		*dst = []T{}
		return
	}
	*dst = (*dst)[:i]
}

// slot extends s to hold index i, re-exposing any element beyond its
// length.
func slot[T any](s []T, i int) []T {
	switch {
	case i < len(s):
		return s
	case i < cap(s):
		return s[:i+1]
	}
	// Double, rather than append's 1.25x for large slices: a decoder
	// growing one element at a time then copies each element about once.
	grown := make([]T, i+1, max(2*cap(s), 4))
	copy(grown, s[:cap(s)])
	return grown
}

// syntax records a syntax error at the current byte: the end of input,
// or an unexpected character in the named context.
func (s *Scanner) syntax(context string) {
	if s.pos >= len(s.data) {
		s.Fail(errors.New("unexpected end of JSON input"))
		return
	}
	s.Fail(errors.New("invalid character " + quoteChar(s.data[s.pos]) + " " + context))
}

// quoteChar formats c as encoding/json's syntax errors do.
func quoteChar(c byte) string {
	if c == '\'' {
		return `'\''`
	}
	if c == '"' {
		return `'"'`
	}
	q := strconv.Quote(string(rune(c)))
	return "'" + q[1:len(q)-1] + "'"
}

// mismatch records a type error for the value starting at the current
// byte, which has already been checked to begin some value.
func (s *Scanner) mismatch(typ string) {
	var v string
	switch c := s.data[s.pos]; {
	case c == '{':
		v = "object"
	case c == '[':
		v = "array"
	case c == '"':
		v = "string"
	case c == 't' || c == 'f':
		v = "bool"
	default:
		v = "number"
	}
	s.Fail(&typeError{value: v, typ: typ, offset: s.pos})
}

func (s *Scanner) ws() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// peek skips white space and returns the next byte, recording a syntax
// error (and returning 0) at the end of input.
func (s *Scanner) peek() byte {
	if s.pos < len(s.data) && s.data[s.pos] > ' ' {
		return s.data[s.pos]
	}
	return s.peekSpace()
}

func (s *Scanner) peekSpace() byte {
	s.ws()
	if s.pos >= len(s.data) {
		s.syntax("")
		return 0
	}
	return s.data[s.pos]
}

// Null consumes a null and reports true when the next value is one;
// otherwise it consumes nothing.
func (s *Scanner) Null() bool {
	if s.err != nil {
		return false
	}
	s.ws()
	if s.pos < len(s.data) && s.data[s.pos] == 'n' {
		s.literal("null")
		return s.err == nil
	}
	return false
}

// Object starts decoding an object into a struct.  It returns true with
// the first member's key read (see Is) when the object has members, and
// false for an empty object, a null, or an error (a value of another
// kind is a type error).  Decode each member's value, then call Member.
func (s *Scanner) Object() bool {
	if s.err != nil {
		return false
	}
	switch s.peek() {
	case '{':
		if !s.open() {
			return false
		}
		if s.peek() == '}' {
			s.pos++
			s.depth--
			return false
		}
		return s.member()
	case 'n':
		s.literal("null")
		return false
	}
	s.value("object")
	return false
}

// Member moves past a member's value: it returns true with the next key
// read, or false at the closing brace or an error.
func (s *Scanner) Member() bool {
	if s.err != nil {
		return false
	}
	return s.nextMember()
}

func (s *Scanner) nextMember() bool {
	switch s.peek() {
	case ',':
		s.pos++
		return s.member()
	case '}':
		s.pos++
		s.depth--
		return false
	}
	s.syntax("after object key:value pair")
	return false
}

// member reads a key and its colon.
func (s *Scanner) member() bool {
	if s.peek() != '"' {
		if s.err == nil {
			s.syntax("looking for beginning of object key string")
		}
		return false
	}
	start := s.pos
	escaped := s.scanString()
	if s.err != nil {
		return false
	}
	s.keyEscaped = escaped
	if escaped {
		s.buf = unquote(s.buf[:0], s.data[start+1:s.pos-1])
		s.key = s.buf
	} else {
		s.key = s.data[start+1 : s.pos-1]
	}
	if s.pos < len(s.data) && s.data[s.pos] == ':' {
		s.pos++
		return true
	}
	if s.peek() != ':' {
		if s.err == nil {
			s.syntax("after object key")
		}
		return false
	}
	s.pos++
	return true
}

// Is reports whether the current key names the field name (an ASCII
// identifier) the way encoding/json matches a key to a field.
func (s *Scanner) Is(name string) bool {
	// An unescaped key is ASCII, which folds onto an ASCII name only
	// letter for letter; an escaped one may hold a multi-byte fold.
	return string(s.key) == name || (s.keyEscaped || len(s.key) == len(name)) && equalFold(s.key, name)
}

// equalFold is bytes.EqualFold(key, []byte(name)), for an ASCII name,
// without the conversion.
func equalFold(key []byte, name string) bool {
	i := 0
	for _, r := range string(key) {
		if i >= len(name) {
			return false
		}
		c := rune(name[i])
		i++
		if r == c {
			continue
		}
		if !sameFold(r, c) {
			return false
		}
	}
	return i == len(name)
}

// sameFold reports whether r and the ASCII rune c fold to one another.
// Besides ASCII case pairs, only the Kelvin sign (U+212A, K) and the long
// s (U+017F, s) fold onto ASCII letters.
func sameFold(r, c rune) bool {
	lc := c | 0x20
	switch {
	case 'a' <= lc && lc <= 'z' && r < utf8.RuneSelf:
		return r|0x20 == lc
	case r == 'K':
		return lc == 'k'
	case r == 'ſ':
		return lc == 's'
	}
	return false
}

// array starts decoding an array into a slice: it returns true when an
// element follows, and false for an empty array, a null, or an error (a
// value of another kind is a type error).  Decode each element, then
// call elem.
func (s *Scanner) array() bool {
	if s.err != nil {
		return false
	}
	switch s.peek() {
	case '[':
		if !s.open() {
			return false
		}
		if s.peek() == ']' {
			s.pos++
			s.depth--
			return false
		}
		return s.err == nil
	case 'n':
		s.literal("null")
		return false
	}
	s.value("array")
	return false
}

// elem moves past an element: it returns true when another follows, and
// false at the closing bracket or an error.
func (s *Scanner) elem() bool {
	if s.err != nil {
		return false
	}
	switch s.peek() {
	case ',':
		s.pos++
		return true
	case ']':
		s.pos++
		s.depth--
		return false
	}
	s.syntax("after array element")
	return false
}

// open consumes the opening byte of an object or array.
func (s *Scanner) open() bool {
	s.pos++
	s.depth++
	if s.depth > maxDepth {
		s.Fail(errors.New("exceeded max depth"))
		return false
	}
	return true
}

// value handles a value of the wrong kind for typ: a type error when it
// is well-formed JSON, a syntax error otherwise.
func (s *Scanner) value(typ string) {
	start := s.pos
	s.skipValue()
	if s.err == nil {
		s.pos = start
		s.mismatch(typ)
	}
}

// String decodes the next value, a string, into *dst; a null leaves it.
func (s *Scanner) String(dst *string) {
	if s.err != nil {
		return
	}
	switch s.peek() {
	case '"':
		start := s.pos
		escaped := s.scanString()
		if s.err != nil {
			return
		}
		raw := s.data[start+1 : s.pos-1]
		if escaped {
			raw = unquote(nil, raw)
		}
		*dst = string(raw)
	case 'n':
		s.literal("null")
	default:
		s.value("string")
	}
}

// Int64 decodes the next value, an integer, into *dst; a null leaves it.
func (s *Scanner) Int64(dst *int64) {
	if n, ok := s.integer("int64"); ok {
		*dst = n
	}
}

// Int decodes the next value, an integer, into *dst; a null leaves it.
func (s *Scanner) Int(dst *int) {
	start := s.pos
	n, ok := s.integer("int")
	if ok && int64(int(n)) != n {
		s.Fail(&typeError{value: "number " + strconv.FormatInt(n, 10), typ: "int", offset: start})
		return
	}
	if ok {
		*dst = int(n)
	}
}

// integer reads the next value as an int64, accumulating the digits as it
// scans them; it reports false after a null (consumed) or an error.
func (s *Scanner) integer(typ string) (int64, bool) {
	if s.err != nil {
		return 0, false
	}
	c := s.peek()
	if c != '-' && !isDigit(c) {
		if c == 'n' {
			s.literal("null")
		} else {
			s.value(typ)
		}
		return 0, false
	}
	start := s.pos
	p := start
	if c == '-' {
		p++
	}
	var u uint64
	digits := 0
	for p < len(s.data) && isDigit(s.data[p]) {
		u = u*10 + uint64(s.data[p]-'0')
		digits++
		p++
		if digits == 1 && u == 0 {
			break // a leading zero ends the integer part
		}
	}
	if digits == 0 || digits > 19 || p < len(s.data) && (s.data[p] == '.' || s.data[p] == 'e' || s.data[p] == 'E') {
		// A fraction, an exponent, 20 digits or more (past int64), or a
		// syntax error: no integer, and the full scanner tells which.
		if s.scanNumber(); s.err == nil {
			s.Fail(&typeError{value: "number " + string(s.data[start:s.pos]), typ: typ, offset: start})
		}
		return 0, false
	}
	s.pos = p
	switch {
	case c != '-' && u <= 1<<63-1:
		return int64(u), true
	case c == '-' && u <= 1<<63:
		return -int64(u), true
	}
	s.Fail(&typeError{value: "number " + string(s.data[start:p]), typ: typ, offset: start})
	return 0, false
}

// Float64 decodes the next value, a number, into *dst; a null leaves it.
// Like encoding/json it parses with strconv.ParseFloat, so a number out of
// float64's range is an error.
func (s *Scanner) Float64(dst *float64) {
	if s.err != nil {
		return
	}
	c := s.peek()
	if c != '-' && !isDigit(c) {
		if c == 'n' {
			s.literal("null")
		} else {
			s.value("float64")
		}
		return
	}
	start := s.pos
	if s.scanNumber(); s.err != nil {
		return
	}
	tok := s.data[start:s.pos]
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		s.Fail(&typeError{value: "number " + string(tok), typ: "float64", offset: start})
		return
	}
	*dst = f
}

// Raw returns the next value's bytes, checked for syntax.  The slice
// aliases the document.
func (s *Scanner) Raw() []byte {
	if s.err != nil {
		return nil
	}
	s.ws()
	start := s.pos
	s.skipValue()
	if s.err != nil {
		return nil
	}
	return s.data[start:s.pos]
}

// Skip moves past the next value, checking its syntax.
func (s *Scanner) Skip() {
	if s.err == nil {
		s.skipValue()
	}
}

// skipValue scans one value of any kind.  It loops rather than
// recursing, keeping the containers it opened on s.skipping.
func (s *Scanner) skipValue() {
	base := len(s.skipping)
	for {
		switch c := s.peek(); {
		case c == '{' || c == '[':
			if !s.open() {
				return
			}
			if s.peek() == c+2 { // '{'+2 is '}', '['+2 is ']'
				s.pos++
				s.depth--
				break
			}
			s.skipping = append(s.skipping, c)
			if c == '{' && !s.skipKey() {
				return
			}
			continue
		case c == '"':
			s.scanString()
		case c == 't':
			s.literal("true")
		case c == 'f':
			s.literal("false")
		case c == 'n':
			s.literal("null")
		case c == '-' || isDigit(c):
			s.scanNumber()
		default:
			s.syntax("looking for beginning of value")
			return
		}
		// After a value: close what it ends, or move to the next one.
		for {
			if s.err != nil || len(s.skipping) == base {
				return
			}
			open := s.skipping[len(s.skipping)-1]
			c := s.peek()
			if c == ',' {
				s.pos++
				if open == '{' && !s.skipKey() {
					return
				}
				break
			}
			if c != open+2 {
				if open == '{' {
					s.syntax("after object key:value pair")
				} else {
					s.syntax("after array element")
				}
				return
			}
			s.pos++
			s.depth--
			s.skipping = s.skipping[:len(s.skipping)-1]
		}
	}
}

// skipKey scans an object key and its colon without decoding the key.
func (s *Scanner) skipKey() bool {
	if s.peek() != '"' {
		if s.err == nil {
			s.syntax("looking for beginning of object key string")
		}
		return false
	}
	s.scanString()
	if s.err != nil {
		return false
	}
	if s.peek() != ':' {
		if s.err == nil {
			s.syntax("after object key")
		}
		return false
	}
	s.pos++
	return true
}

// literal consumes the keyword lit, whose first byte is at pos.
func (s *Scanner) literal(lit string) {
	for i := 0; i < len(lit); i++ {
		if s.pos >= len(s.data) || s.data[s.pos] != lit[i] {
			s.syntax("in literal " + lit + " (expecting " + quoteChar(lit[i]) + ")")
			return
		}
		s.pos++
	}
}

// String bytes by class: ASCII that needs no attention, a byte outside
// ASCII (kept, but the string must be unescaped to check its UTF-8), and
// the quote, backslash and control characters.
const (
	plainASCII = iota
	plainUTF8
	special
)

var strClass = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		switch {
		case c < 0x20 || c == '"' || c == '\\':
			t[c] = special
		case c >= utf8.RuneSelf:
			t[c] = plainUTF8
		}
	}
	return t
}()

// scanString consumes a string token starting at its opening quote and
// reports whether it needs unescaping: it holds an escape or a byte
// outside ASCII.
func (s *Scanner) scanString() (escaped bool) {
	data, p := s.data, s.pos+1
	for {
		for p < len(data) && strClass[data[p]] == plainASCII {
			p++
		}
		if p >= len(data) {
			s.pos = p
			s.syntax("")
			return false
		}
		c := data[p]
		if strClass[c] == plainUTF8 {
			escaped = true
			p++
			continue
		}
		switch c {
		case '"':
			s.pos = p + 1
			return escaped
		case '\\':
			escaped = true
			p++
			if p >= len(data) {
				s.pos = p
				s.syntax("")
				return false
			}
			switch data[p] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				p++
			case 'u':
				p++
				for i := 0; i < 4; i++ {
					if p >= len(data) || !isHex(data[p]) {
						s.pos = p
						s.syntax("in \\u hexadecimal character escape")
						return false
					}
					p++
				}
			default:
				s.pos = p
				s.syntax("in string escape code")
				return false
			}
		default: // a control character
			s.pos = p
			s.syntax("in string literal")
			return false
		}
	}
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// scanNumber consumes a number token.
func (s *Scanner) scanNumber() {
	data, p := s.data, s.pos
	if data[p] == '-' {
		p++
	}
	switch {
	case p < len(data) && data[p] == '0':
		p++
	case p < len(data) && '1' <= data[p] && data[p] <= '9':
		p = digits(data, p)
	default:
		s.pos = p
		s.syntax("in numeric literal")
		return
	}
	if p < len(data) && data[p] == '.' {
		p++
		if p >= len(data) || !isDigit(data[p]) {
			s.pos = p
			s.syntax("after decimal point in numeric literal")
			return
		}
		p = digits(data, p)
	}
	if p < len(data) && (data[p] == 'e' || data[p] == 'E') {
		p++
		if p < len(data) && (data[p] == '+' || data[p] == '-') {
			p++
		}
		if p >= len(data) || !isDigit(data[p]) {
			s.pos = p
			s.syntax("in exponent of numeric literal")
			return
		}
		p = digits(data, p)
	}
	s.pos = p
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits returns the index of the first non-digit at or after p.
func digits(data []byte, p int) int {
	for p < len(data) && isDigit(data[p]) {
		p++
	}
	return p
}

// unquote appends the contents of a scanned string token (quotes
// stripped) to dst, decoding escapes as encoding/json does: invalid UTF-8
// and unpaired surrogates become U+FFFD.
func unquote(dst, src []byte) []byte {
	for i := 0; i < len(src); {
		c := src[i]
		switch {
		case c == '\\':
			i++
			switch e := src[i]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(src[i+1:])
				i += 4
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+6 < len(src) && src[i+1] == '\\' && src[i+2] == 'u' {
						r2 = hex4(src[i+3:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						r = dec
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				dst = utf8.AppendRune(dst, r)
			default: // '"', '\\', '/'
				dst = append(dst, e)
			}
			i++
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(src[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

// hex4 decodes four hex digits, already checked by scanString.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}
