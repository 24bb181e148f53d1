// Package canonjson reads the strict subset of JSON that well-behaved
// clients send, in one pass over the bytes and without reflection:
//
//   - objects whose keys the caller names, each at most once;
//   - strings of printable ASCII with no escapes;
//   - numbers in the JSON number grammar, parsed with the strconv calls
//     encoding/json makes, integer fields taking integer literals only;
//   - true and false;
//   - JSON whitespace, and nothing after the top-level value.
//
// A Reader reports no errors. The first byte outside the subset fails it:
// every later read returns a zero value, and the caller hands the same
// bytes to encoding/json, which then accepts them or words the error. So
// the subset only ever decides how a body is decoded, never what it
// decodes to or how a malformed body is refused.
package canonjson

import "strconv"

// maxDepth bounds the nesting Value walks. A deeper value is left to
// encoding/json, whose own limit is far larger.
const maxDepth = 32

// Reader walks one JSON document, which NewReader gives it.
type Reader struct {
	b      []byte
	i      int
	str    string // b as a string, made on the first String call
	failed bool
}

// NewReader returns a Reader at the start of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// OK reports whether every read so far stayed in the subset.
func (r *Reader) OK() bool { return !r.failed }

// End reports whether the document stayed in the subset and ends after
// the value read, whitespace aside.
func (r *Reader) End() bool {
	if r.skipSpace() != len(r.b) {
		r.failed = true
	}
	return !r.failed
}

// skipSpace moves past JSON whitespace and returns the new position.
func (r *Reader) skipSpace() int {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return r.i
		}
	}
	return r.i
}

// peek returns the next byte after whitespace, or 0 at the end or once
// the reader has failed.
func (r *Reader) peek() byte {
	if r.failed || r.skipSpace() == len(r.b) {
		return 0
	}
	return r.b[r.i]
}

// Open reads the opening byte c of an object ('{') or array ('[').
func (r *Reader) Open(c byte) {
	if r.peek() != c {
		r.failed = true
		return
	}
	r.i++
}

// More reports whether the object or array closed by c holds another
// member, reading the comma before every member but the first (n is the
// count of members read so far). When it reports false the closing byte
// has been read, or the reader has failed.
func (r *Reader) More(c byte, n int) bool {
	switch r.peek() {
	case 0:
		r.failed = true
		return false
	case c:
		r.i++
		return false
	case ',':
		if n == 0 {
			r.failed = true
			return false
		}
		r.i++
		return true
	default:
		if n > 0 {
			r.failed = true
			return false
		}
		return true
	}
}

// Key reads an object key and its colon and returns the entry of names it
// equals. Bit i of seen marks names[i] as read before; a key not in names
// (at most 64 of them), or one already seen, fails the reader and returns
// "".
func (r *Reader) Key(names []string, seen *uint64) string {
	key := r.token()
	if r.peek() != ':' {
		r.failed = true
		return ""
	}
	r.i++
	for i, name := range names {
		if string(key) == name {
			if *seen&(1<<i) != 0 {
				break
			}
			*seen |= 1 << i
			return name
		}
	}
	r.failed = true
	return ""
}

// token reads a string and returns its bytes between the quotes.
func (r *Reader) token() []byte {
	if r.peek() != '"' {
		r.failed = true
		return nil
	}
	start := r.i + 1
	for j := start; j < len(r.b); j++ {
		switch c := r.b[j]; {
		case c == '"':
			r.i = j + 1
			return r.b[start:j]
		case c < 0x20 || c > 0x7e || c == '\\':
			r.failed = true
			return nil
		}
	}
	r.failed = true
	return nil
}

// String reads a string. Every string a Reader returns shares one copy of
// the document.
func (r *Reader) String() string {
	tok := r.token()
	if r.failed {
		return ""
	}
	if r.str == "" {
		r.str = string(r.b)
	}
	end := r.i - 1
	return r.str[end-len(tok) : end]
}

// Bool reads true or false.
func (r *Reader) Bool() bool {
	switch r.peek() {
	case 't':
		return r.literal("true")
	case 'f':
		r.literal("false")
	default:
		r.failed = true
	}
	return false
}

// literal reads the bytes of lit and reports whether they were there.
func (r *Reader) literal(lit string) bool {
	if len(r.b)-r.i < len(lit) || string(r.b[r.i:r.i+len(lit)]) != lit {
		r.failed = true
		return false
	}
	r.i += len(lit)
	return true
}

// number reads a number in the JSON grammar and returns its bytes and
// whether it was an integer literal (no fraction, no exponent).
func (r *Reader) number() (tok []byte, integer bool) {
	if r.peek() == 0 {
		r.failed = true
		return nil, false
	}
	start, j := r.i, r.i
	if r.b[j] == '-' {
		j++
	}
	switch {
	case j < len(r.b) && r.b[j] == '0':
		j++
	case j < len(r.b) && r.b[j] >= '1' && r.b[j] <= '9':
		j = digits(r.b, j)
	default:
		r.failed = true
		return nil, false
	}
	integer = true
	if j < len(r.b) && r.b[j] == '.' {
		integer = false
		j++
		k := digits(r.b, j)
		if k == j {
			r.failed = true
			return nil, false
		}
		j = k
	}
	if j < len(r.b) && (r.b[j] == 'e' || r.b[j] == 'E') {
		integer = false
		j++
		if j < len(r.b) && (r.b[j] == '+' || r.b[j] == '-') {
			j++
		}
		k := digits(r.b, j)
		if k == j {
			r.failed = true
			return nil, false
		}
		j = k
	}
	r.i = j
	return r.b[start:j], integer
}

// digits returns the position after the run of decimal digits at j.
func digits(b []byte, j int) int {
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	return j
}

// Int reads an integer literal that fits a signed integer of bitSize
// bits.
func (r *Reader) Int(bitSize int) int64 {
	tok, integer := r.number()
	if !integer {
		r.failed = true
		return 0
	}
	v, err := strconv.ParseInt(string(tok), 10, bitSize)
	if err != nil {
		r.failed = true
		return 0
	}
	return v
}

// Uint reads an integer literal that fits a uint64.
func (r *Reader) Uint() uint64 {
	tok, integer := r.number()
	if !integer {
		r.failed = true
		return 0
	}
	v, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		r.failed = true
		return 0
	}
	return v
}

// Float reads a number that is finite as a float64.
func (r *Reader) Float() float64 {
	tok, _ := r.number()
	if r.failed {
		return 0
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		r.failed = true
		return 0
	}
	return v
}

// Value reads one value of any shape in the subset and returns its bytes.
// Its objects may hold any keys, repeated or not, since only the bytes are
// kept.
func (r *Reader) Value() []byte {
	start := r.skipSpace()
	r.value(0)
	if r.failed {
		return nil
	}
	return r.b[start:r.i]
}

func (r *Reader) value(depth int) {
	if depth == maxDepth {
		r.failed = true
		return
	}
	switch r.peek() {
	case '{':
		r.i++
		for n := 0; r.More('}', n); n++ {
			r.token()
			if r.peek() != ':' {
				r.failed = true
				return
			}
			r.i++
			r.value(depth + 1)
		}
	case '[':
		r.i++
		for n := 0; r.More(']', n); n++ {
			r.value(depth + 1)
		}
	case '"':
		r.token()
	case 't', 'f':
		r.Bool()
	default:
		r.number()
	}
}
