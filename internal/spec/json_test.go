package spec

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
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
