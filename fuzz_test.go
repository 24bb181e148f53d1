package dtse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/spec"
)

// FuzzHandoffImport feeds arbitrary bodies to POST /v1/internal/handoff on
// a cluster node. The import contract under fuzz: the handler never panics
// or answers 5xx, a body that is not one valid handoff object is a 400 and
// anything else a 204, and no key the live ring assigns to another node is
// ever imported. Each body is also posted to a node with a disk tier: what
// it imports must survive a close and reopen of the tier — replayed with
// no byte truncated, every indexed record loading, every key owned.
func FuzzHandoffImport(f *testing.F) {
	s := newHandoffNode(f, ServeOptions{Obs: obs.New()})
	owned, foreign := handoffKeys(f, s)
	ownedHex, _ := owned.MarshalText()
	foreignHex, _ := foreign.MarshalText()
	val, _ := encodeServed(&servedResponse{status: http.StatusOK, body: []byte("{}\n")})
	f.Add(mustMarshal(handoffWire{From: "http://peer.test", Records: []handoffRec{
		{Key: owned, Val: val}, {Key: foreign, Val: val},
	}}))
	f.Add([]byte(`{"from":"x","records":[{"key":"` + string(foreignHex) + `","val":"AAAA"}],"seeds":[{"canon":"c","assign":{"g":0}}]}`))
	f.Add([]byte(`{"records":[{"key":"` + string(ownedHex) + `","val":"not base64"}]}`))
	f.Add([]byte(`{"records":null}`))
	f.Add([]byte(`{} {}`))
	f.Add([]byte(`{"from":`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	// Digest keys on the wire: a duplicated owned key (the last record
	// wins), an empty value, a key one digit short, a string key of the
	// format before keys were digests, and a key that is not hex.
	f.Add([]byte(`{"records":[{"key":"` + string(ownedHex) + `","val":"AAAA"},{"key":"` + string(ownedHex) + `","val":""}]}`))
	f.Add([]byte(`{"records":[{"key":"` + string(ownedHex[1:]) + `","val":"AAAA"}]}`))
	f.Add([]byte(`{"records":[{"key":"demo|16|1|1","val":"AAAA"}]}`))
	f.Add([]byte(`{"records":[{"key":"` + strings.Repeat("zz", len(ownedHex)/2) + `","val":"AAAA"}]}`))

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
		s.memo.Range(memo.Requests, func(key memo.Key, _ any) bool {
			if !s.cluster.router.Owns(key.Word()) {
				t.Fatalf("imported key %v is owned by another node", key)
			}
			return true
		})

		dir := t.TempDir()
		tier, err := memo.OpenDiskTier(dir)
		if err != nil {
			t.Fatal(err)
		}
		d := newHandoffNode(t, ServeOptions{Obs: obs.New(), Disk: tier})
		if code := postHandoff(d, body).Code; code != want {
			t.Fatalf("disk-tier node: status %d, want %d", code, want)
		}
		if err := tier.Close(); err != nil {
			t.Fatal(err)
		}
		written := tier.Stats()
		if written.Dropped != 0 || written.Writes != written.Imported {
			t.Fatalf("disk tier after import: %+v, want every import written", written)
		}
		reopened, err := memo.OpenDiskTier(dir)
		if err != nil {
			t.Fatalf("reopen after import: %v", err)
		}
		defer reopened.Close()
		st := reopened.Stats()
		if st.Truncated != 0 || st.Replayed != written.Writes {
			t.Fatalf("replay after import: %+v, want %d records and nothing truncated", st, written.Writes)
		}
		loaded := 0
		reopened.Range(memo.Requests, func(key memo.Key, _ []byte) bool {
			if !d.cluster.router.Owns(key.Word()) {
				t.Fatalf("imported key %v is owned by another node", key)
			}
			loaded++
			return true
		})
		if loaded != st.Records || reopened.Stats().ReadErrs != 0 {
			t.Fatalf("%d of %d indexed records load (stats %+v)", loaded, st.Records, reopened.Stats())
		}
	})
}

// checkEnvelope posts body to the batch handler h as the whole envelope.
// parseBatch must split it into the raw items a json.Decoder decode of
// the body holds, or fail with the same text (batchReference). Posting it
// must not answer 5xx; a body that is not exactly one JSON object must
// get a 400; a 200 must carry one item per envelope item, in index order.
// An envelope holding a long demo is not posted.
func checkEnvelope(t *testing.T, h http.Handler, body []byte) {
	t.Helper()
	items, err := parseBatch(body, nil, nil)
	want, wantErr := batchReference(bytes.NewReader(body))
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("batch parse error %v, reference error %v", err, wantErr)
	}
	if len(items) != len(want) {
		t.Fatalf("batch parse split %d items, reference %d", len(items), len(want))
	}
	for i := range items {
		if !bytes.Equal(items[i], want[i]) {
			t.Fatalf("batch item %d split as %q, reference %q", i, items[i], want[i])
		}
		if p, _, err := parseExplore(items[i], nil); err == nil && longDemo(p) {
			return
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/explore/batch", bytes.NewReader(body)))
	if rec.Code >= 500 {
		t.Fatalf("envelope: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if (!json.Valid(body) || trimmed[0] != '{') && rec.Code != http.StatusBadRequest {
		t.Fatalf("envelope that is not one JSON object: status %d, want 400: %s", rec.Code, rec.Body.Bytes())
	}
	if rec.Code != http.StatusOK {
		return
	}
	var out batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Items) != len(items) {
		t.Fatalf("envelope of %d items answered %d items (%v): %s", len(items), len(out.Items), err, rec.Body.Bytes())
	}
	for i, it := range out.Items {
		if it.Index != i {
			t.Fatalf("envelope item %d carries index %d", i, it.Index)
		}
	}
}

// batchReference is the batch envelope decode as it was before the
// one-pass split: one json.Decoder over the body, items kept as
// json.RawMessage. It stays as the oracle for checkEnvelope.
func batchReference(body io.Reader) ([]json.RawMessage, error) {
	dec := json.NewDecoder(io.LimitReader(body, maxRequestBody))
	dec.DisallowUnknownFields()
	var breq batchRequest
	err := dec.Decode(&breq)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = fmt.Errorf("trailing data after the JSON object")
		}
	}
	if err != nil {
		return nil, fmt.Errorf("invalid batch body: %v", err)
	}
	return breq.Items, nil
}

// longDemo reports whether a parsed request is a demo too large to post
// under fuzzing.
func longDemo(p *parsedRequest) bool {
	return p.mode == "demo" && (p.demo.Size == 0 || p.demo.Size > 32)
}

// parseExploreReference is the request parser as it was before the spec
// was decoded once and canonicalized by spec.AppendJSON, and before the
// one-pass decode: the envelope goes through a json.Decoder, the spec
// bytes through a second Decoder, and the spec it returns and its
// canonical form come from the reflective decode and encoding of the
// spec schema (reflectSpec, reflectCanonical). It stays as the oracle for
// FuzzExploreRequest. The deliberate differences from the old parser are
// the null-spec line (TestExploreNullSpec) and the end-of-body check,
// which also refuses a stray ']' or '}' after the object.
func parseExploreReference(body io.Reader) (*parsedRequest, *spec.Spec, error) {
	// The envelope as it was, with the spec kept as raw bytes. It shadows
	// the serving type's name, which decode errors print.
	type exploreRequest struct {
		Spec      json.RawMessage `json:"spec,omitempty"`
		Budget    uint64          `json:"budget,omitempty"`
		Demo      *demoRequest    `json:"demo,omitempty"`
		TimeoutMS int64           `json:"timeout_ms,omitempty"`
		Params    *paramsRequest  `json:"params,omitempty"`
	}
	dec := json.NewDecoder(io.LimitReader(body, maxRequestBody))
	dec.DisallowUnknownFields()
	req := &exploreRequest{}
	if err := dec.Decode(req); err != nil {
		return nil, nil, fmt.Errorf("invalid request body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, nil, fmt.Errorf("invalid request body: trailing data after the JSON object")
	}
	if string(req.Spec) == "null" {
		req.Spec = nil
	}
	if (req.Spec == nil) == (req.Demo == nil) {
		return nil, nil, fmt.Errorf("exactly one of spec or demo must be set")
	}
	if req.TimeoutMS < 0 {
		return nil, nil, fmt.Errorf("timeout_ms %d out of range (must be >= 0)", req.TimeoutMS)
	}
	p := &parsedRequest{timeoutMS: req.TimeoutMS}
	if req.Demo != nil {
		d := req.Demo
		if req.Budget != 0 || req.Params != nil {
			return nil, nil, fmt.Errorf("budget and params apply to spec mode only")
		}
		if d.Size < 0 || d.Size > 4096 {
			return nil, nil, fmt.Errorf("demo.size %d out of range [0, 4096]", d.Size)
		}
		if d.Quant < 0 {
			return nil, nil, fmt.Errorf("demo.quant %d out of range (must be >= 0)", d.Quant)
		}
		key := fmt.Sprintf("demo|%d|%d|%d", d.Size, d.Seed, d.Quant)
		p.key = memo.NewKey([]byte(key), memo.Fingerprint64(key))
		p.mode = "demo"
		p.label = fmt.Sprintf("size=%d", d.Size)
		p.demo.Size, p.demo.Seed, p.demo.Quant = d.Size, d.Seed, d.Quant
		return p, nil, nil
	}
	if req.Budget == 0 {
		return nil, nil, fmt.Errorf("budget is required with spec")
	}
	// A spec the reflective decode refuses is worded by spec.ParseJSON,
	// whose errors name the schema's own types; one it takes must
	// validate.
	sp, err := reflectSpec(req.Spec)
	if err == nil {
		err = sp.Validate()
	} else if _, perr := spec.ParseJSON(req.Spec); perr != nil {
		err = perr
	} else {
		err = fmt.Errorf("spec.ParseJSON took a spec the reflective decode refuses (%v)", err)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("invalid spec: %v", err)
	}
	k, err := specParams(req.Params)
	if err != nil {
		return nil, nil, err
	}
	p.budget, p.knobs = req.Budget, k
	canon, err := reflectCanonical(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("invalid spec: %v", err)
	}
	key := fmt.Sprintf("spec|%d|%d|%d|%g|%t|%t|%s",
		req.Budget, k.OnChip, k.Threshold, k.Frame, k.InPlace, k.Interconnect, canon)
	p.key = memo.NewKey([]byte(key), memo.Fingerprint64(canon))
	p.mode = "spec"
	p.label = sp.Name
	return p, sp, nil
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

// reflectSpec decodes spec bytes through the mirrored schema and builds
// the Spec as spec.ParseJSON's reflective decode does: an empty array is a
// nil slice, except deps, which keeps what the decoder made of it.
func reflectSpec(raw []byte) (*spec.Spec, error) {
	var js refSpec
	if err := json.Unmarshal(raw, &js); err != nil {
		return nil, err
	}
	s := &spec.Spec{Name: js.Name}
	for _, g := range js.Groups {
		s.Groups = append(s.Groups, spec.BasicGroup(g))
	}
	for _, jl := range js.Loops {
		l := spec.Loop{Name: jl.Name, Iterations: jl.Iterations}
		for i, a := range jl.Accesses {
			l.Accesses = append(l.Accesses, spec.Access{
				ID: i, Group: a.Group, Write: a.Write, Count: a.Count,
				Deps: a.Deps, Site: a.Site, Branch: a.Branch,
			})
		}
		s.Loops = append(s.Loops, l)
	}
	return s, nil
}

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
// every body: the same parsed request (dedup key, routing fingerprint,
// mode, label, deadline, budget, knobs and demo) and the same decoded
// spec (reflect.DeepEqual, so "deps":[] stays apart from an absent deps),
// or the same client-facing error. The corpus holds one body of each
// kind the one-pass decoder hands to encoding/json (handOffBodies) and
// the edge cases it takes (onePassBodies). Posting the body must never panic or answer 5xx.
// Every body is posted twice: the second answer, which a parsed body gets
// through the Aliases keyspace, must carry the first one's status, and its
// bytes unless the first took as long as its deadline. A cut answer
// depends on where the deadline fell, and its body need not say so: a cut
// assignment reads "optimal":false with "degraded":false. A
// body that is one JSON value is also posted as a one-item batch to a
// second server, and the item must carry the single POST's status and body
// whenever neither request ran as long as its deadline (its own
// timeout_ms, when shorter than the fuzz deadline), which could cut it.
// Each raw body is also posted as a batch envelope (checkEnvelope).
// Requests that would run a long demo are parsed but not posted.
func FuzzExploreRequest(f *testing.F) {
	const deadline = 50 * time.Millisecond
	srv := NewServer(ServeOptions{MaxTimeout: deadline})
	f.Cleanup(srv.Abort)
	h := srv.Handler()
	bsrv := NewServer(ServeOptions{MaxTimeout: deadline})
	f.Cleanup(bsrv.Abort)
	bh := bsrv.Handler()
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
	f.Add([]byte(`{"items":[{"demo":{"size":8}}]} trailing`))
	f.Add([]byte(`{"items":[{"demo":{"size":8}}]}{"items":[{"demo":{"size":8}}]}`))
	f.Add([]byte(`{"items":[{"demo":{"size":8}},{"budget":1}]}`))
	f.Add([]byte(`{"items":[{"demo":{"size":8}}]}]`))
	for _, b := range append(handOffBodies, onePassBodies...) {
		f.Add([]byte(b))
	}
	// Batch envelopes at the edge of the one-pass split: whitespace around
	// items, items of every value shape, a null item, a repeated and a
	// case-variant items key.
	f.Add([]byte(` { "items" : [ {"demo":{"size":8}} , {"budget":1,"budget":2} ] } `))
	f.Add([]byte(`{"items":[1,-2.5e3,"s",true,false,[],{},[{"a":[0]}]]}`))
	f.Add([]byte(`{"items":[null]}`))
	f.Add([]byte(`{"items":[{"demo":{"size":8}}],"items":[]}`))
	f.Add([]byte(`{"Items":[{"demo":{"size":8}}]}`))
	f.Add([]byte(`{"items":[]}`))
	// A deadline shorter than the fuzz deadline cuts both answers.
	f.Add([]byte(`{"demo":{"size":8,"seed":3,"quant":2},"tiMeout_ms":1}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotSpec, err := parseExplore(body, nil)
		want, wantSpec, wantErr := parseExploreReference(bytes.NewReader(body))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("parse error %v, reference error %v", err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("parse error %q, reference error %q", err, wantErr)
			}
		} else if *got != *want {
			t.Fatalf("parse differs from the reference:\n got %+v\nwant %+v", *got, *want)
		} else if !reflect.DeepEqual(gotSpec, wantSpec) {
			t.Fatalf("decoded spec differs from the reference:\n got %+v\nwant %+v", gotSpec, wantSpec)
		}
		checkEnvelope(t, bh, body)
		if err == nil && longDemo(got) {
			return // a valid demo this large is minutes of profiling
		}
		start := time.Now()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/explore", bytes.NewReader(body)))
		single := time.Since(start)
		if rec.Code >= 500 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		again := httptest.NewRecorder()
		h.ServeHTTP(again, httptest.NewRequest(http.MethodPost, "/v1/explore", bytes.NewReader(body)))
		if again.Code != rec.Code {
			t.Fatalf("posted again: status %d, first %d: %s", again.Code, rec.Code, again.Body.Bytes())
		}
		cut := err == nil && single >= srv.effectiveTimeout(got.timeoutMS)
		if !cut && again.Body.String() != rec.Body.String() {
			t.Fatalf("posted again: %q, first %q", again.Body.Bytes(), rec.Body.Bytes())
		}
		if !json.Valid(body) {
			return // not one JSON value, so it cannot be a batch item
		}
		start = time.Now()
		brec := httptest.NewRecorder()
		bh.ServeHTTP(brec, httptest.NewRequest(http.MethodPost, "/v1/explore/batch",
			bytes.NewReader(mustMarshal(batchRequest{Items: []json.RawMessage{body}}))))
		batched := time.Since(start)
		var env batchResponse
		if brec.Code != http.StatusOK || json.Unmarshal(brec.Body.Bytes(), &env) != nil || len(env.Items) != 1 {
			t.Fatalf("one-item batch: status %d: %s", brec.Code, brec.Body.Bytes())
		}
		limit := deadline
		if err == nil {
			limit = srv.effectiveTimeout(got.timeoutMS)
		}
		if single >= limit || batched >= limit {
			return // the request's deadline may have cut either answer
		}
		if it := env.Items[0]; it.Status != rec.Code || string(it.Body)+"\n" != rec.Body.String() {
			t.Fatalf("one-item batch answered %d %q; single POST %d %q", it.Status, it.Body, rec.Code, rec.Body.Bytes())
		}
	})
}
