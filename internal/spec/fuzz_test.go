package spec

import (
	"bytes"
	"strings"
	"testing"
)

// handWrittenJSON is the minimal designer-authored specification from
// TestJSONHandWrittenSpec — the natural seed for the fuzz corpus.
const handWrittenJSON = `{
  "name": "hand",
  "groups": [{"name": "buf", "words": 1024, "bits": 12}],
  "loops": [
    {"name": "main", "iterations": 5000, "accesses": [
      {"group": "buf", "count": 2},
      {"group": "buf", "write": true, "count": 1, "deps": [0]}
    ]}
  ]
}`

// specEqual compares two specifications semantically: nil and empty Deps
// slices are the same dependence set (the JSON form omits empty deps, so a
// byte-level round trip can legally turn [] into nil).
func specEqual(a, b *Spec) bool {
	if a.Name != b.Name || len(a.Groups) != len(b.Groups) || len(a.Loops) != len(b.Loops) {
		return false
	}
	for i := range a.Groups {
		if a.Groups[i] != b.Groups[i] {
			return false
		}
	}
	for i := range a.Loops {
		la, lb := a.Loops[i], b.Loops[i]
		if la.Name != lb.Name || la.Iterations != lb.Iterations || len(la.Accesses) != len(lb.Accesses) {
			return false
		}
		for j := range la.Accesses {
			x, y := la.Accesses[j], lb.Accesses[j]
			if x.ID != y.ID || x.Group != y.Group || x.Write != y.Write ||
				x.Count != y.Count || x.Site != y.Site || x.Branch != y.Branch {
				return false
			}
			if len(x.Deps) != len(y.Deps) {
				return false
			}
			for k := range x.Deps {
				if x.Deps[k] != y.Deps[k] {
					return false
				}
			}
		}
	}
	return true
}

// FuzzSpecJSONRoundTrip feeds arbitrary bytes to ReadJSON: it must either
// error cleanly or produce a specification that validates, serializes to
// exactly the reflective reference bytes, and survives a WriteJSON →
// ReadJSON round trip unchanged.
func FuzzSpecJSONRoundTrip(f *testing.F) {
	f.Add([]byte(handWrittenJSON))
	f.Add([]byte(`{"name":"empty","groups":[],"loops":[]}`))
	f.Add([]byte(`{"name":"x","groups":[{"name":"g","words":1,"bits":1}],"loops":[{"name":"l","iterations":1,"accesses":[{"group":"g","count":0.5,"site":"s","branch":"b"}]}]}`))
	f.Add([]byte(`{"name":"<\u2028>&\ud800","groups":[{"name":"\u0000\b","words":1,"bits":1}],"loops":[{"name":"l","iterations":1,"accesses":[{"group":"\u0000\b","count":1e-7,"deps":[]},{"group":"\u0000\b","count":1e-300}]}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"name":"bad","groups":[{"name":"g","words":-3,"bits":99}],"loops":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return // clean rejection is fine; panics are the bug class
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ReadJSON accepted a spec that does not validate: %v", err)
		}
		checkMatchesReflect(t, s)
		var buf strings.Builder
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON failed on an accepted spec: %v", err)
		}
		back, err := ReadJSON(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("round trip rejected WriteJSON output: %v\n%s", err, buf.String())
		}
		if !specEqual(s, back) {
			t.Fatalf("round trip changed the spec:\nfirst:  %+v\nsecond: %+v", s, back)
		}
	})
}
