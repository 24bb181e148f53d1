package dtse

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/memo"
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
