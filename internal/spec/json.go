package spec

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/canonjson"
)

// The JSON form of a specification, for persisting pruned specifications
// and exchanging them between the profiling and exploration tools. The
// format mirrors the in-memory structures with lower-case field names and
// omits empty fields, so hand-written specifications stay readable.
//
// The indented form AppendJSON writes is canonical: the exploration server
// derives its dedup, disk-tier and ring-routing keys from it, and
// cmd/specexplore its disk-cache keys, so its bytes are frozen
// (testdata/canonical.golden). They are exactly what encoding/json's
// indenting Encoder wrote for the jsonSpec types below when it was the
// serializer, and those types remain the decoding schema.

type jsonSpec struct {
	Name   string      `json:"name"`
	Groups []jsonGroup `json:"groups"`
	Loops  []jsonLoop  `json:"loops"`
}

type jsonGroup struct {
	Name  string `json:"name"`
	Words int64  `json:"words"`
	Bits  int    `json:"bits"`
}

type jsonLoop struct {
	Name       string       `json:"name"`
	Iterations uint64       `json:"iterations"`
	Accesses   []jsonAccess `json:"accesses"`
}

type jsonAccess struct {
	Group  string  `json:"group"`
	Write  bool    `json:"write,omitempty"`
	Count  float64 `json:"count"`
	Deps   []int   `json:"deps,omitempty"`
	Site   string  `json:"site,omitempty"`
	Branch string  `json:"branch,omitempty"`
}

// ParseJSON decodes and validates one specification. Access IDs are
// assigned from the array order. A specification in the canonical subset
// of JSON (package canonjson) is decoded in one pass; any other input goes
// through encoding/json, which words every error.
func ParseJSON(raw []byte) (*Spec, error) {
	r := canonjson.NewReader(raw)
	s, err := DecodeCanonical(&r)
	if r.End() {
		return s, err
	}
	return parseReflect(raw)
}

// parseReflect is ParseJSON through encoding/json and the jsonSpec schema:
// the decode of every input outside the canonical subset, and the
// reference DecodeCanonical is tested against.
func parseReflect(raw []byte) (*Spec, error) {
	var js jsonSpec
	if err := json.Unmarshal(raw, &js); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	s := &Spec{Name: js.Name}
	if len(js.Groups) > 0 {
		s.Groups = make([]BasicGroup, len(js.Groups))
		for i, g := range js.Groups {
			s.Groups[i] = BasicGroup(g)
		}
	}
	if len(js.Loops) > 0 {
		s.Loops = make([]Loop, len(js.Loops))
		for i, jl := range js.Loops {
			l := Loop{Name: jl.Name, Iterations: jl.Iterations}
			if len(jl.Accesses) > 0 {
				l.Accesses = make([]Access, len(jl.Accesses))
				for j, ja := range jl.Accesses {
					l.Accesses[j] = Access{
						ID: j, Group: ja.Group, Write: ja.Write, Count: ja.Count,
						Deps: ja.Deps, Site: ja.Site, Branch: ja.Branch,
					}
				}
			}
			s.Loops[i] = l
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// The keys of each object of the schema, as the jsonSpec types name them.
var (
	specKeys   = []string{"name", "groups", "loops"}
	groupKeys  = []string{"name", "words", "bits"}
	loopKeys   = []string{"name", "iterations", "accesses"}
	accessKeys = []string{"group", "write", "count", "deps", "site", "branch"}
)

// DecodeCanonical reads one specification object at r in one pass and
// validates it, building exactly the Spec that encoding/json's decode of
// the same bytes does: an empty or absent array is a nil slice, except
// deps, where [] is an empty one. Once r has failed, what it returns
// means nothing: the caller decodes the bytes with encoding/json instead.
func DecodeCanonical(r *canonjson.Reader) (*Spec, error) {
	s := &Spec{}
	var seen uint64
	r.Open('{')
	for n := 0; r.More('}', n); n++ {
		switch r.Key(specKeys, &seen) {
		case "name":
			s.Name = r.String()
		case "groups":
			s.Groups = readGroups(r)
		case "loops":
			s.Loops = readLoops(r)
		}
	}
	if !r.OK() {
		return nil, nil
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// readGroups, readLoops, readAccesses and readDeps each fill a buffer on
// the stack and copy it out once, so an array costs one allocation of its
// final size.

func readGroups(r *canonjson.Reader) []BasicGroup {
	var buf [16]BasicGroup
	gs := buf[:0]
	r.Open('[')
	for n := 0; r.More(']', n); n++ {
		var g BasicGroup
		var seen uint64
		r.Open('{')
		for m := 0; r.More('}', m); m++ {
			switch r.Key(groupKeys, &seen) {
			case "name":
				g.Name = r.String()
			case "words":
				g.Words = r.Int(64)
			case "bits":
				g.Bits = int(r.Int(strconv.IntSize))
			}
		}
		gs = append(gs, g)
	}
	if len(gs) == 0 {
		return nil
	}
	return slices.Clone(gs)
}

func readLoops(r *canonjson.Reader) []Loop {
	var buf [4]Loop
	ls := buf[:0]
	r.Open('[')
	for n := 0; r.More(']', n); n++ {
		var l Loop
		var seen uint64
		r.Open('{')
		for m := 0; r.More('}', m); m++ {
			switch r.Key(loopKeys, &seen) {
			case "name":
				l.Name = r.String()
			case "iterations":
				l.Iterations = r.Uint()
			case "accesses":
				l.Accesses = readAccesses(r)
			}
		}
		ls = append(ls, l)
	}
	if len(ls) == 0 {
		return nil
	}
	return slices.Clone(ls)
}

func readAccesses(r *canonjson.Reader) []Access {
	var buf [32]Access
	as := buf[:0]
	r.Open('[')
	for n := 0; r.More(']', n); n++ {
		a := Access{ID: n}
		var seen uint64
		r.Open('{')
		for m := 0; r.More('}', m); m++ {
			switch r.Key(accessKeys, &seen) {
			case "group":
				a.Group = r.String()
			case "write":
				a.Write = r.Bool()
			case "count":
				a.Count = r.Float()
			case "deps":
				a.Deps = readDeps(r)
			case "site":
				a.Site = r.String()
			case "branch":
				a.Branch = r.String()
			}
		}
		as = append(as, a)
	}
	if len(as) == 0 {
		return nil
	}
	return slices.Clone(as)
}

func readDeps(r *canonjson.Reader) []int {
	var buf [8]int
	ds := buf[:0]
	r.Open('[')
	for n := 0; r.More(']', n); n++ {
		ds = append(ds, int(r.Int(strconv.IntSize)))
	}
	return append([]int{}, ds...)
}

// AppendJSON appends the canonical indented serialization of s, ending in
// a newline, to dst. A count that is NaN or infinite has no JSON form; the
// error is the one encoding/json reports for it.
func AppendJSON(dst []byte, s *Spec) ([]byte, error) {
	dst = append(dst, "{\n  \"name\": "...)
	dst = appendString(dst, s.Name)
	dst = append(dst, ",\n  \"groups\": "...)
	if len(s.Groups) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, g := range s.Groups {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, "\n    {\n      \"name\": "...)
			dst = appendString(dst, g.Name)
			dst = append(dst, ",\n      \"words\": "...)
			dst = strconv.AppendInt(dst, g.Words, 10)
			dst = append(dst, ",\n      \"bits\": "...)
			dst = strconv.AppendInt(dst, int64(g.Bits), 10)
			dst = append(dst, "\n    }"...)
		}
		dst = append(dst, "\n  ]"...)
	}
	dst = append(dst, ",\n  \"loops\": "...)
	if len(s.Loops) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range s.Loops {
			l := &s.Loops[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, "\n    {\n      \"name\": "...)
			dst = appendString(dst, l.Name)
			dst = append(dst, ",\n      \"iterations\": "...)
			dst = strconv.AppendUint(dst, l.Iterations, 10)
			dst = append(dst, ",\n      \"accesses\": "...)
			if len(l.Accesses) == 0 {
				dst = append(dst, "null"...)
			} else {
				dst = append(dst, '[')
				for j := range l.Accesses {
					if j > 0 {
						dst = append(dst, ',')
					}
					var err error
					if dst, err = appendAccess(dst, &l.Accesses[j]); err != nil {
						return nil, err
					}
				}
				dst = append(dst, "\n      ]"...)
			}
			dst = append(dst, "\n    }"...)
		}
		dst = append(dst, "\n  ]"...)
	}
	return append(dst, "\n}\n"...), nil
}

// appendAccess writes one access object at the nesting depth of a loop's
// accesses array, omitting the empty optional fields.
func appendAccess(dst []byte, a *Access) ([]byte, error) {
	dst = append(dst, "\n        {\n          \"group\": "...)
	dst = appendString(dst, a.Group)
	if a.Write {
		dst = append(dst, ",\n          \"write\": true"...)
	}
	dst = append(dst, ",\n          \"count\": "...)
	var err error
	if dst, err = appendFloat(dst, a.Count); err != nil {
		return nil, err
	}
	if len(a.Deps) > 0 {
		dst = append(dst, ",\n          \"deps\": ["...)
		for k, d := range a.Deps {
			if k > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, "\n            "...)
			dst = strconv.AppendInt(dst, int64(d), 10)
		}
		dst = append(dst, "\n          ]"...)
	}
	if a.Site != "" {
		dst = append(dst, ",\n          \"site\": "...)
		dst = appendString(dst, a.Site)
	}
	if a.Branch != "" {
		dst = append(dst, ",\n          \"branch\": "...)
		dst = appendString(dst, a.Branch)
	}
	return append(dst, "\n        }"...), nil
}

// appendFloat formats f as encoding/json does: the shortest decimal that
// round-trips, in exponent form (with a one-digit negative exponent left
// unpadded) below 1e-6 and from 1e21 up.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, &json.UnsupportedValueError{
			Value: reflect.ValueOf(f),
			Str:   strconv.FormatFloat(f, 'g', -1, 64),
		}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendString writes s as a JSON string the way encoding/json does with
// HTML escaping on: '<', '>' and '&' become \u003c, \u003e and \u0026,
// control bytes get their short escape or \u00XX, U+2028 and U+2029 are
// escaped, and each byte of invalid UTF-8 becomes the escape \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// MarshalJSON implements json.Marshaler with the canonical serialization
// (encoding/json compacts or re-indents it to the caller's layout).
func (s *Spec) MarshalJSON() ([]byte, error) { return AppendJSON(nil, s) }

// UnmarshalJSON implements json.Unmarshaler through ParseJSON: the result
// is validated.
func (s *Spec) UnmarshalJSON(data []byte) error {
	out, err := ParseJSON(data)
	if err != nil {
		return err
	}
	*s = *out
	return nil
}

// WriteJSON writes the canonical indented serialization.
func (s *Spec) WriteJSON(w io.Writer) error {
	b, err := AppendJSON(nil, s)
	if err != nil {
		return &json.MarshalerError{Type: reflect.TypeOf(s), Err: err}
	}
	_, err = w.Write(b)
	return err
}

// ReadJSON parses and validates the first JSON value read from r.
func ReadJSON(r io.Reader) (*Spec, error) {
	var raw json.RawMessage
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, err
	}
	return ParseJSON(raw)
}
