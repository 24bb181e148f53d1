package dtse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/memo"
	"repro/internal/spec"
)

// FuzzHandoffImport feeds arbitrary bodies to POST /v1/internal/handoff on
// a cluster node. The import contract under fuzz: the handler never panics
// or answers 5xx, a body that is not one valid handoff object is a 400 and
// anything else a 204, and no key the live ring assigns to another node is
// ever imported.
func FuzzHandoffImport(f *testing.F) {
	s := newHandoffNode(f)
	owned, foreign := handoffKeys(f, s)
	val, _ := encodeServed(&servedResponse{status: http.StatusOK, body: []byte("{}\n")})
	f.Add(mustMarshal(handoffWire{From: "http://peer.test", Records: []handoffRec{
		{Key: owned, Val: val}, {Key: foreign, Val: val},
	}}))
	f.Add([]byte(`{"from":"x","records":[{"key":"` + foreign + `","val":"AAAA"}],"seeds":[{"canon":"c","assign":{"g":0}}]}`))
	f.Add([]byte(`{"records":[{"key":"` + owned + `","val":"not base64"}]}`))
	f.Add([]byte(`{"records":null}`))
	f.Add([]byte(`{} {}`))
	f.Add([]byte(`{"from":`))
	f.Add([]byte(`null`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		code := postHandoff(s, body).Code
		if code >= 500 {
			t.Fatalf("status %d", code)
		}
		want := http.StatusNoContent
		if json.Unmarshal(body, new(handoffWire)) != nil {
			want = http.StatusBadRequest
		}
		if code != want {
			t.Fatalf("status %d, want %d", code, want)
		}
		s.memo.Range(memo.Requests, func(key string, _ any) bool {
			if !s.cluster.router.Owns(routeKeyOfCacheKey(key)) {
				t.Fatalf("imported key %q is owned by another node", key)
			}
			return true
		})
	})
}

// parseExploreReference is the request parser as it was before the spec
// was decoded once and canonicalized by spec.AppendJSON: the spec bytes go
// through a second Decoder, and the canonical form is the reflective
// encoding of the spec schema, indented. It stays as the oracle for
// FuzzExploreRequest. The one deliberate difference from the old parser
// is the null-spec line (TestExploreNullSpec).
func parseExploreReference(body io.Reader) (*parsedRequest, error) {
	dec := json.NewDecoder(io.LimitReader(body, maxRequestBody))
	dec.DisallowUnknownFields()
	req := &exploreRequest{}
	if err := dec.Decode(req); err != nil {
		return nil, fmt.Errorf("invalid request body: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("invalid request body: trailing data after the JSON object")
	}
	if string(req.Spec) == "null" {
		req.Spec = nil
	}
	if (req.Spec == nil) == (req.Demo == nil) {
		return nil, fmt.Errorf("exactly one of spec or demo must be set")
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms %d out of range (must be >= 0)", req.TimeoutMS)
	}
	p := &parsedRequest{req: req}
	if req.Demo != nil {
		d := req.Demo
		if req.Budget != 0 || req.Params != nil {
			return nil, fmt.Errorf("budget and params apply to spec mode only")
		}
		if d.Size < 0 || d.Size > 4096 {
			return nil, fmt.Errorf("demo.size %d out of range [0, 4096]", d.Size)
		}
		if d.Quant < 0 {
			return nil, fmt.Errorf("demo.quant %d out of range (must be >= 0)", d.Quant)
		}
		p.key = fmt.Sprintf("demo|%d|%d|%d", d.Size, d.Seed, d.Quant)
		p.mode = "demo"
		p.label = fmt.Sprintf("size=%d", d.Size)
		return p, nil
	}
	if req.Budget == 0 {
		return nil, fmt.Errorf("budget is required with spec")
	}
	var sp spec.Spec
	if err := json.NewDecoder(bytes.NewReader(req.Spec)).Decode(&sp); err != nil {
		return nil, fmt.Errorf("invalid spec: %v", err)
	}
	p.spec = &sp
	onchip, threshold, frame, inplace, interconnect, err := specParams(req.Params)
	if err != nil {
		return nil, err
	}
	canon, err := reflectCanonical(&sp)
	if err != nil {
		return nil, fmt.Errorf("invalid spec: %v", err)
	}
	p.key = fmt.Sprintf("spec|%d|%d|%d|%g|%t|%t|%s",
		req.Budget, onchip, threshold, frame, inplace, interconnect, canon)
	p.canon = canon
	p.mode = "spec"
	p.label = sp.Name
	return p, nil
}

// The spec JSON schema, mirrored so the reference canonicalizes by
// reflection rather than through spec.AppendJSON.
type (
	refSpec struct {
		Name   string     `json:"name"`
		Groups []refGroup `json:"groups"`
		Loops  []refLoop  `json:"loops"`
	}
	refGroup struct {
		Name  string `json:"name"`
		Words int64  `json:"words"`
		Bits  int    `json:"bits"`
	}
	refLoop struct {
		Name       string      `json:"name"`
		Iterations uint64      `json:"iterations"`
		Accesses   []refAccess `json:"accesses"`
	}
	refAccess struct {
		Group  string  `json:"group"`
		Write  bool    `json:"write,omitempty"`
		Count  float64 `json:"count"`
		Deps   []int   `json:"deps,omitempty"`
		Site   string  `json:"site,omitempty"`
		Branch string  `json:"branch,omitempty"`
	}
)

// reflectCanonical is the canonical spec serialization as encoding/json
// wrote it: marshal, indent by two spaces, end with a newline.
func reflectCanonical(s *spec.Spec) (string, error) {
	js := refSpec{Name: s.Name}
	for _, g := range s.Groups {
		js.Groups = append(js.Groups, refGroup(g))
	}
	for _, l := range s.Loops {
		jl := refLoop{Name: l.Name, Iterations: l.Iterations}
		for _, a := range l.Accesses {
			jl.Accesses = append(jl.Accesses, refAccess{
				Group: a.Group, Write: a.Write, Count: a.Count,
				Deps: a.Deps, Site: a.Site, Branch: a.Branch,
			})
		}
		js.Loops = append(js.Loops, jl)
	}
	compact, err := json.Marshal(js)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, compact, "", "  "); err != nil {
		return "", err
	}
	buf.WriteByte('\n')
	return buf.String(), nil
}

// FuzzExploreRequest feeds arbitrary bodies to the request parser and the
// explore handler. parseExplore must agree with the reference parser on
// every body: the same dedup key, routing fingerprint, mode and label, or
// the same client-facing error. Posting the body must never panic or answer
// 5xx. Requests that would run a long demo are parsed but not posted.
func FuzzExploreRequest(f *testing.F) {
	srv := NewServer(ServeOptions{MaxTimeout: 50 * time.Millisecond})
	f.Cleanup(srv.Abort)
	h := srv.Handler()
	for _, b := range specHotBodies(2) {
		f.Add(b)
	}
	f.Add([]byte(`{"spec": {"name": "hand", "groups": [{"name": "buf", "words": 1024, "bits": 12}],
	  "loops": [{"name": "main", "iterations": 5000, "accesses": [
	    {"group": "buf", "count": 2}, {"group": "buf", "write": true, "count": 1, "deps": [0]}]}]},
	  "budget": 30000, "params": {"onchip": 2, "threshold": 0, "frame": 0.5, "inplace": true}}`))
	f.Add([]byte(`{"spec":{"name":"<\u2028>&\ud800","groups":[{"name":"\u0000","words":1,"bits":1}],"loops":[{"name":"l","iterations":1,"accesses":[{"group":"\u0000","count":1e-7}]}]},"budget":9,"params":{"frame":1e21}}`))
	f.Add([]byte(`{"demo":{"size":16,"seed":3,"quant":2}}`))
	f.Add([]byte(`{"spec":null,"budget":5}`))
	f.Add([]byte(`{"spec":null,"demo":{"size":16}}`))
	f.Add([]byte(`{"spec":{"name":"x","groups":[{"name":"g","words":"4","bits":8}],"loops":[]},"budget":1}`))
	f.Add([]byte(`{"spec":[1,2],"budget":1}`))
	f.Add([]byte(`{"demo":{"size":16}} {"demo":{"size":16}}`))
	f.Add([]byte(`{"spec":{},"budget":1,"bogus":true}`))
	f.Add([]byte(`{"spec":`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := parseExplore(bytes.NewReader(body))
		want, wantErr := parseExploreReference(bytes.NewReader(body))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("parse error %v, reference error %v", err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("parse error %q, reference error %q", err, wantErr)
			}
		} else if got.key != want.key || got.canon != want.canon ||
			got.mode != want.mode || got.label != want.label {
			t.Fatalf("parse differs from the reference:\n got key %q label %q\nwant key %q label %q",
				got.key, got.label, want.key, want.label)
		}
		if err == nil && got.mode == "demo" && (got.req.Demo.Size == 0 || got.req.Demo.Size > 32) {
			return // a valid demo this large is minutes of profiling
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/explore", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	})
}
