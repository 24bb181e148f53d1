package spec

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/canonjson"
)

func specForJSON(t *testing.T) *Spec {
	t.Helper()
	b := NewBuilder("jsontest")
	b.Group("big", 1<<20, 8).Group("small", 256, 20)
	b.Loop("body", 300_000)
	r := b.ReadSite("big", "nbr", 0.75)
	b.Branch("alt0")
	x := b.Read("small", 0.5, r)
	b.Write("small", 0.5, x)
	b.Branch("")
	b.WriteSite("big", "store", 1, r)
	return b.MustBuild()
}

func TestJSONRoundTrip(t *testing.T) {
	s := specForJSON(t)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name || len(got.Groups) != len(s.Groups) || len(got.Loops) != len(s.Loops) {
		t.Fatalf("structure lost: %+v", got)
	}
	for li := range s.Loops {
		if len(got.Loops[li].Accesses) != len(s.Loops[li].Accesses) {
			t.Fatalf("loop %d access count changed", li)
		}
		for ai, a := range s.Loops[li].Accesses {
			ga := got.Loops[li].Accesses[ai]
			if ga.Group != a.Group || ga.Write != a.Write || ga.Count != a.Count ||
				ga.Site != a.Site || ga.Branch != a.Branch || len(ga.Deps) != len(a.Deps) {
				t.Fatalf("access %d/%d changed: %+v vs %+v", li, ai, ga, a)
			}
		}
	}
	if got.TotalAccesses() != s.TotalAccesses() {
		t.Fatal("totals changed through JSON")
	}
}

func TestJSONOmitsEmptyFields(t *testing.T) {
	b := NewBuilder("min")
	b.Group("g", 4, 8)
	b.Loop("l", 1)
	b.Read("g", 1)
	s := b.MustBuild()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"site", "branch", "write", "deps"} {
		if strings.Contains(string(data), `"`+absent+`"`) {
			t.Fatalf("empty field %q serialized: %s", absent, data)
		}
	}
}

func TestJSONRejectsInvalidSpec(t *testing.T) {
	bad := []string{
		`{"name":"x","groups":[{"name":"g","words":0,"bits":8}],"loops":[]}`,
		`{"name":"x","groups":[{"name":"g","words":4,"bits":8}],
		  "loops":[{"name":"l","iterations":0,"accesses":[{"group":"g","count":1}]}]}`,
		`{"name":"x","groups":[],"loops":[{"name":"l","iterations":1,
		  "accesses":[{"group":"ghost","count":1}]}]}`,
		`{"name":"x","groups":[{"name":"g","words":4,"bits":8}],
		  "loops":[{"name":"l","iterations":1,
		  "accesses":[{"group":"g","count":1,"deps":[5]}]}]}`,
		`not json at all`,
	}
	for i, in := range bad {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: invalid JSON spec accepted", i)
		}
	}
}

func TestJSONHandWrittenSpec(t *testing.T) {
	in := `{
	  "name": "hand",
	  "groups": [{"name": "buf", "words": 1024, "bits": 12}],
	  "loops": [{
	    "name": "main", "iterations": 5000,
	    "accesses": [
	      {"group": "buf", "count": 2},
	      {"group": "buf", "write": true, "count": 1, "deps": [0]}
	    ]
	  }]
	}`
	s, err := ReadJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if accessesPerFrame(s, "buf") != 15000 {
		t.Fatalf("accesses = %d, want 15000", accessesPerFrame(s, "buf"))
	}
	if !s.Loops[0].Accesses[1].Write {
		t.Fatal("write flag lost")
	}
}

// checkDecodeCanonical reports whether the one-pass decode takes data, and
// fails unless what it takes decodes exactly as parseReflect does: the same
// Spec under reflect.DeepEqual, so "deps":[] (an empty slice) stays apart
// from an absent deps (nil), or the same error.
func checkDecodeCanonical(t *testing.T, data []byte) bool {
	t.Helper()
	r := canonjson.NewReader(data)
	got, err := DecodeCanonical(&r)
	if !r.End() {
		return false
	}
	want, wantErr := parseReflect(data)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("one-pass decode error %v, reflective error %v\n%s", err, wantErr, data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("one-pass decode differs from the reflective one:\n got %#v\nwant %#v", got, want)
	}
	return true
}

// TestDecodeCanonicalMatchesReflect runs the one-pass differential over
// hand-written edge cases, which it must all take, and over the indented
// and compact serializations of the edge-case spec and of seeded hostile
// specs, whose escapes and non-ASCII names it hands off, and of the same
// specs with plain strings, which it must take.
func TestDecodeCanonicalMatchesReflect(t *testing.T) {
	for _, c := range []string{
		handWrittenJSON,
		`{"name":"d","groups":[{"name":"g","words":1,"bits":1}],"loops":[{"name":"l","iterations":1,"accesses":[{"group":"g","count":1},{"group":"g","count":1,"deps":[]}]}]}`,
		`{"name":"d","groups":[{"name":"g","words":1,"bits":1}],"loops":[{"name":"l","iterations":1,"accesses":[{"group":"g","count":1},{"group":"g","count":1}]}]}`,
		`{"name":"empty","groups":[],"loops":[]}`,
		`{}`,
		`{"name":"x","groups":[{"name":"g","words":1,"bits":1}],"loops":[{"name":"l","iterations":1,"accesses":[]}]}`,
		`{"name":"x","groups":[{"name":"g","words":1,"bits":1}],"loops":[{"name":"l","iterations":1,"accesses":[{"group":"g","count":-0,"write":false,"site":"s","branch":"b"}]}]}`,
		`{"name":"bad","groups":[{"name":"g","words":-3,"bits":99}],"loops":[]}`,
		`{"name":"cycle","groups":[{"name":"g","words":1,"bits":1}],"loops":[{"name":"l","iterations":1,"accesses":[{"group":"g","count":1,"deps":[1]},{"group":"g","count":1,"deps":[0]}]}]}`,
	} {
		if !checkDecodeCanonical(t, []byte(c)) {
			t.Errorf("one-pass decode handed off %s", c)
		}
	}
	taken, plainTaken := 0, 0
	specs := []*Spec{edgeSpec(), specForJSON(t)}
	for seed := int64(1); seed <= 200; seed++ {
		specs = append(specs, HostileSpec(seed))
	}
	for _, s := range specs {
		for plain, s := range []*Spec{s, plainStrings(s)} {
			b, err := AppendJSON(nil, s)
			if err != nil {
				continue // a NaN or infinite count has no JSON form
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, b); err != nil {
				t.Fatal(err)
			}
			for _, b := range [][]byte{b, compact.Bytes()} {
				if checkDecodeCanonical(t, b) {
					taken++
				} else if plain == 1 && !bytes.Contains(b, []byte("null")) {
					t.Errorf("one-pass decode handed off a spec of plain strings:\n%s", b)
				}
				if plain == 1 {
					plainTaken++
				}
			}
		}
	}
	t.Logf("one-pass decode took %d of %d serializations", taken, 4*len(specs))
	if plainTaken == 0 {
		t.Error("no spec of plain strings was serialized")
	}
}

// plainStrings returns a copy of s whose names and tags hold only bytes
// the canonical subset takes unescaped: printable ASCII other than '"',
// '\\' and the '<', '>' and '&' that AppendJSON escapes. Every other byte
// becomes 'x'.
func plainStrings(s *Spec) *Spec {
	plain := func(v string) string {
		b := []byte(v)
		for i, c := range b {
			if c < 0x20 || c > 0x7e || strings.IndexByte(`"\<>&`, c) >= 0 {
				b[i] = 'x'
			}
		}
		return string(b)
	}
	c := s.Clone()
	c.Name = plain(c.Name)
	for i := range c.Groups {
		c.Groups[i].Name = plain(c.Groups[i].Name)
	}
	for i := range c.Loops {
		l := &c.Loops[i]
		l.Name = plain(l.Name)
		for j := range l.Accesses {
			a := &l.Accesses[j]
			a.Group, a.Site, a.Branch = plain(a.Group), plain(a.Site), plain(a.Branch)
		}
	}
	return c
}
