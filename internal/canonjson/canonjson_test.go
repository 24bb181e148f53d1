package canonjson

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

// TestValueSubset pins the subset's grammar on whole documents: what a
// Reader takes is valid JSON, and what it refuses is either invalid or
// outside the subset.
func TestValueSubset(t *testing.T) {
	for _, c := range []struct {
		doc string
		ok  bool
	}{
		{`0`, true}, {`-0`, true}, {`12`, true}, {`-1.5e+3`, true}, {`2E-2`, true}, {`0.25`, true},
		{`01`, false}, {`1.`, false}, {`.5`, false}, {`+1`, false}, {`-`, false}, {`1e`, false},
		{`1e+`, false}, {`0x10`, false}, {`Infinity`, false}, {`NaN`, false},
		{`"plain ascii ~"`, true}, {`""`, true},
		{`"esc\"aped"`, false}, {`"\u0041"`, false}, {"\"tab\there\"", false}, {"\"caf\xc3\xa9\"", false},
		{`"unterminated`, false},
		{`true`, true}, {`false`, true}, {`null`, false}, {`tru`, false}, {`True`, false},
		{` {"a" : [1, {"b":[]}, "c"] , "a" : {} } `, true},
		{"\t[\r\n]\n", true}, {`[1,]`, false}, {`[,1]`, false}, {`{"a":1,}`, false}, {`{"a"}`, false},
		{`{1:2}`, false}, {`[1 2]`, false}, {`[1]]`, false}, {`[1] 2`, false}, {`[`, false}, {``, false},
		{"[\f]", false},
	} {
		r := NewReader([]byte(c.doc))
		r.Value()
		if got := r.End(); got != c.ok {
			t.Errorf("%q: taken %v, want %v", c.doc, got, c.ok)
		}
		if c.ok && !json.Valid([]byte(c.doc)) {
			t.Errorf("%q: taken but not valid JSON", c.doc)
		}
	}
}

// TestValueDepth: nesting past maxDepth is left to encoding/json.
func TestValueDepth(t *testing.T) {
	for depth, want := range map[int]bool{maxDepth: true, maxDepth + 1: false} {
		doc := make([]byte, 0, 2*depth)
		for i := 0; i < depth; i++ {
			doc = append(doc, '[')
		}
		for i := 0; i < depth; i++ {
			doc = append(doc, ']')
		}
		r := NewReader(doc)
		r.Value()
		if got := r.End(); got != want {
			t.Errorf("depth %d: taken %v, want %v", depth, got, want)
		}
	}
}

// TestTypedReads: each typed read takes exactly the literals encoding/json
// decodes into a field of its type, parsed to the same value.
func TestTypedReads(t *testing.T) {
	ints := map[string]bool{
		`0`: true, `-0`: true, `42`: true, `-9223372036854775808`: true,
		`9223372036854775808`: false, `1e3`: false, `1.0`: false, `true`: false, `"1"`: false,
	}
	for lit, ok := range ints {
		r := NewReader([]byte(lit))
		v := r.Int(64)
		if got := r.End(); got != ok {
			t.Errorf("Int %s: taken %v, want %v", lit, got, ok)
		} else if ok {
			if want, _ := strconv.ParseInt(lit, 10, 64); v != want {
				t.Errorf("Int %s = %d", lit, v)
			}
		}
	}
	r := NewReader([]byte(`2147483648`))
	if r.Int(32); r.End() {
		t.Error("Int(32) took 2^31")
	}
	uints := map[string]bool{`0`: true, `18446744073709551615`: true, `18446744073709551616`: false, `-0`: false, `-1`: false}
	for lit, ok := range uints {
		r := NewReader([]byte(lit))
		r.Uint()
		if got := r.End(); got != ok {
			t.Errorf("Uint %s: taken %v, want %v", lit, got, ok)
		}
	}
	floats := map[string]float64{`1`: 1, `-0`: math.Copysign(0, -1), `1.5e-7`: 1.5e-7, `1e308`: 1e308}
	for lit, want := range floats {
		r := NewReader([]byte(lit))
		if v := r.Float(); !r.End() || math.Float64bits(v) != math.Float64bits(want) {
			t.Errorf("Float %s = %v (taken %v), want %v", lit, v, r.OK(), want)
		}
	}
	r = NewReader([]byte(`1e309`))
	if r.Float(); r.End() {
		t.Error("Float took a number beyond float64")
	}
	for lit, want := range map[string]bool{`true`: true, `false`: false} {
		r := NewReader([]byte(lit))
		if v := r.Bool(); !r.End() || v != want {
			t.Errorf("Bool %s = %v", lit, v)
		}
	}
}

// TestKeys: a key must be named, and may appear once per object.
func TestKeys(t *testing.T) {
	names := []string{"a", "b"}
	for doc, ok := range map[string]bool{
		`{"a":1,"b":2}`: true, `{"b":1}`: true, `{}`: true,
		`{"a":1,"a":2}`: false, `{"c":1}`: false, `{"A":1}`: false, `{"a" 1}`: false,
	} {
		r := NewReader([]byte(doc))
		var seen uint64
		r.Open('{')
		for n := 0; r.More('}', n); n++ {
			if r.Key(names, &seen) != "" {
				r.Int(64)
			}
		}
		if got := r.End(); got != ok {
			t.Errorf("%s: taken %v, want %v", doc, got, ok)
		}
	}
}

// TestStringsShareOneCopy: strings are slices of one copy of the
// document, made once, and never of the caller's bytes.
func TestStringsShareOneCopy(t *testing.T) {
	doc := []byte(`["ab","cd"]`)
	r := NewReader(doc)
	var got []string
	allocs := testing.AllocsPerRun(1, func() {
		r = NewReader(doc)
		got = got[:0]
		r.Open('[')
		for n := 0; r.More(']', n); n++ {
			got = append(got, r.String())
		}
	})
	if !r.End() || len(got) != 2 || got[0] != "ab" || got[1] != "cd" {
		t.Fatalf("read %q", got)
	}
	if allocs > 1 {
		t.Errorf("%v allocations for two strings, want the one copy", allocs)
	}
	doc[2] = 'X'
	if got[0] != "ab" {
		t.Errorf("a string aliases the caller's bytes: %q", got[0])
	}
}
