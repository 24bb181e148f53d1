package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// reflectSpec carries the reflective MarshalJSON that was the spec
// serializer before AppendJSON: the test-only reference the canonical
// encoder must match byte for byte.
type reflectSpec Spec

func (r *reflectSpec) MarshalJSON() ([]byte, error) {
	js := jsonSpec{Name: r.Name}
	for _, g := range r.Groups {
		js.Groups = append(js.Groups, jsonGroup(g))
	}
	for _, l := range r.Loops {
		jl := jsonLoop{Name: l.Name, Iterations: l.Iterations}
		for _, a := range l.Accesses {
			jl.Accesses = append(jl.Accesses, jsonAccess{
				Group: a.Group, Write: a.Write, Count: a.Count,
				Deps: a.Deps, Site: a.Site, Branch: a.Branch,
			})
		}
		js.Loops = append(js.Loops, jl)
	}
	return json.Marshal(js)
}

// reflectJSON is the reflective WriteJSON: marshal, compact and indent
// through an indenting Encoder.
func reflectJSON(s *Spec) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode((*reflectSpec)(s)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkMatchesReflect fails unless AppendJSON, WriteJSON and MarshalJSON
// all produce the reference bytes for s.
func checkMatchesReflect(t *testing.T, s *Spec) {
	t.Helper()
	want, err := reflectJSON(s)
	if err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	got, err := AppendJSON([]byte("prefix"), s)
	if err != nil {
		t.Fatalf("AppendJSON: %v", err)
	}
	if !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("AppendJSON differs from the reflective encoder:\n got %q\nwant %q", got[len("prefix"):], want)
	}
	var w bytes.Buffer
	if err := s.WriteJSON(&w); err != nil || !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("WriteJSON differs from the reflective encoder (err %v)", err)
	}
	compact, err := json.Marshal(s)
	wantCompact, _ := json.Marshal((*reflectSpec)(s))
	if err != nil || !bytes.Equal(compact, wantCompact) {
		t.Fatalf("MarshalJSON differs from the reflective encoder (err %v):\n got %q\nwant %q", err, compact, wantCompact)
	}
}

// TestAppendJSONMatchesReflect is the encoder differential: 20 000 seeded
// hostile specs, plus the edge-case spec, must serialize exactly as the
// reflective encoder does.
func TestAppendJSONMatchesReflect(t *testing.T) {
	checkMatchesReflect(t, edgeSpec())
	checkMatchesReflect(t, &Spec{})
	rng := rand.New(rand.NewSource(17))
	n := 20_000
	if testing.Short() {
		n = 2_000
	}
	for i := 0; i < n; i++ {
		checkMatchesReflect(t, hostileSpec(rng))
	}
}

// TestAppendJSONUnsupportedFloat: NaN and infinite counts have no JSON
// form. AppendJSON reports encoding/json's error for them, and WriteJSON
// wraps it as the Encoder did.
func TestAppendJSONUnsupportedFloat(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := edgeSpec()
		s.Loops[0].Accesses[3].Count = f
		_, err := AppendJSON(nil, s)
		_, refErr := reflectJSON(s)
		var me *json.MarshalerError
		if err == nil || !errors.As(refErr, &me) || err.Error() != me.Err.Error() {
			t.Fatalf("count %v: AppendJSON error %v, reference %v", f, err, refErr)
		}
		werr := s.WriteJSON(new(bytes.Buffer))
		if want := "json: error calling MarshalJSON for type *spec.Spec: " + err.Error(); werr == nil || werr.Error() != want {
			t.Fatalf("count %v: WriteJSON error %v, want %q", f, werr, want)
		}
	}
}
