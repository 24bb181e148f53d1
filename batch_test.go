package dtse

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/memo"
	"repro/internal/obs"
)

func postBatch(t *testing.T, ts *httptest.Server, body string) (*http.Response, *batchResponse, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/explore/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env batchResponse
	raw := json.RawMessage{}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("batch response not JSON: %v", err)
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("batch envelope: %v", err)
		}
	}
	return resp, &env, raw
}

func batchBody(items ...string) string {
	return fmt.Sprintf(`{"items": [%s]}`, strings.Join(items, ", "))
}

// TestBatchExplore: a mixed batch returns per-item results byte-identical
// to standalone POSTs of the same requests, invalid items degrade to
// per-item 400s without failing the envelope, and every item carries its
// own trace id under the batch's.
func TestBatchExplore(t *testing.T) {
	_, specJSON, budget := serviceSpec(t)
	srv := NewServer(ServeOptions{Obs: obs.New()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Standalone references first (they also warm the Requests keyspace:
	// the batch must answer them as per-item dedup hits).
	_, ref0 := postExplore(t, ts, specBody(specJSON, budget, ""))
	_, ref1 := postExplore(t, ts, `{"demo": {"size": 64}}`)
	hitsBefore := srv.memo.Stats(memo.Requests).Hits

	resp, env, _ := postBatch(t, ts, batchBody(
		specBody(specJSON, budget, ""),
		`{"demo": {"size": 64}}`,
		`{"budget": 1}`, // invalid: budget without spec
	))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	btid := resp.Header.Get("X-Trace-Id")
	if btid == "" {
		t.Fatal("batch response missing X-Trace-Id")
	}
	if len(env.Items) != 3 {
		t.Fatalf("batch returned %d items, want 3", len(env.Items))
	}
	for i, want := range [][]byte{ref0, ref1} {
		it := env.Items[i]
		if it.Status != http.StatusOK || it.Degraded {
			t.Errorf("item %d: status %d degraded=%v", i, it.Status, it.Degraded)
		}
		if got := string(it.Body); got != strings.TrimRight(string(want), "\n") {
			t.Errorf("item %d body differs from standalone POST:\nbatch: %.120s\nsolo:  %.120s", i, got, want)
		}
		if it.Index != i || !strings.HasPrefix(it.TraceID, btid+".") {
			t.Errorf("item %d: index=%d trace=%q (batch trace %q)", i, it.Index, it.TraceID, btid)
		}
	}
	if it := env.Items[2]; it.Status != http.StatusBadRequest {
		t.Errorf("invalid item: status %d, want 400 (body %s)", it.Status, it.Body)
	}
	if hits := srv.memo.Stats(memo.Requests).Hits; hits < hitsBefore+2 {
		t.Errorf("Requests hits %d -> %d; batch items did not dedup against standalone results", hitsBefore, hits)
	}
}

// TestBatchExploreValidation pins the envelope-level failure modes.
func TestBatchExploreValidation(t *testing.T) {
	srv := NewServer(ServeOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, _, raw := postBatch(t, ts, `{"items": []}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d (%s)", resp.StatusCode, raw)
	}
	items := make([]string, maxBatchItems+1)
	for i := range items {
		items[i] = `{"demo": {"size": 64}}`
	}
	if resp, _, raw := postBatch(t, ts, batchBody(items...)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversize batch: status %d (%s)", resp.StatusCode, raw)
	}
	if resp, _, _ := postBatch(t, ts, `not json`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed batch: status %d", resp.StatusCode)
	}
	// Trailing data after the envelope is refused, not silently dropped.
	one := batchBody(`{"demo": {"size": 8}}`)
	for name, body := range map[string]string{
		"trailing text": one + ` trailing`,
		"two envelopes": one + one,
		"stray bracket": one + `]`,
	} {
		resp, _, raw := postBatch(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "invalid batch body: trailing data after the JSON object") {
			t.Errorf("%s: status %d (%s), want 400 for trailing data", name, resp.StatusCode, raw)
		}
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/explore/batch", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET batch: status %d, want 405", resp.StatusCode)
	}
}

// TestBatchExploreCanceledMidBatch: when the batch context dies before
// every item launched (client disconnect / server drain), ForEach leaves
// the unlaunched tail nil; the envelope must backfill those items with a
// defined 503 instead of panicking on a nil result. A pre-canceled request
// context exercises exactly that path: item 0 always runs, items 1+ are
// never launched.
func TestBatchExploreCanceledMidBatch(t *testing.T) {
	srv := NewServer(ServeOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body := batchBody(`{"demo": {"size": 64}}`, `{"demo": {"size": 64}}`, `{"demo": {"size": 64}}`)
	req := httptest.NewRequest(http.MethodPost, "/v1/explore/batch", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)

	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d (%s)", rec.Code, rec.Body.Bytes())
	}
	var env batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("batch envelope: %v", err)
	}
	if len(env.Items) != 3 {
		t.Fatalf("batch returned %d items, want 3", len(env.Items))
	}
	btid := rec.Header().Get("X-Trace-Id")
	for i, it := range env.Items {
		if it.TraceID != fmt.Sprintf("%s.%d", btid, i) {
			t.Errorf("item %d: trace %q (batch trace %q)", i, it.TraceID, btid)
		}
		if len(it.Body) == 0 {
			t.Errorf("item %d: empty body", i)
		}
	}
	// Items 1+ were never launched: they must carry the backfilled 503.
	for i := 1; i < 3; i++ {
		if env.Items[i].Status != http.StatusServiceUnavailable {
			t.Errorf("unlaunched item %d: status %d, want 503 (%s)", i, env.Items[i].Status, env.Items[i].Body)
		}
	}
}

// TestBatchExploreConcurrentSharedScratch is the scratch-aliasing race
// test: two concurrent batches share the server's one worker pool (and the
// arena pool underneath), with distinct budgets so nothing deduplicates
// and every item really evaluates. Under -race this fails if any pooled
// scratch is handed to two explorations at once; without -race it still
// checks each item's result against the standalone answer, which aliased
// scratch would corrupt.
func TestBatchExploreConcurrentSharedScratch(t *testing.T) {
	_, specJSON, budget := serviceSpec(t)
	srv := NewServer(ServeOptions{Obs: obs.New(), NoCache: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const perBatch = 4
	body := func(base uint64) string {
		items := make([]string, perBatch)
		for i := range items {
			items[i] = specBody(specJSON, base+uint64(i), "")
		}
		return batchBody(items...)
	}
	type out struct {
		resp *http.Response
		env  *batchResponse
	}
	outs := make([]out, 2)
	var wg sync.WaitGroup
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			resp, env, _ := postBatch(t, ts, body(budget+uint64(16*b)))
			outs[b] = out{resp, env}
		}(b)
	}
	wg.Wait()

	for b, o := range outs {
		if o.resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d", b, o.resp.StatusCode)
		}
		if len(o.env.Items) != perBatch {
			t.Fatalf("batch %d: %d items", b, len(o.env.Items))
		}
		for i, it := range o.env.Items {
			if it.Status != http.StatusOK {
				t.Errorf("batch %d item %d: status %d (%s)", b, i, it.Status, it.Body)
				continue
			}
			_, want := postExplore(t, ts, specBody(specJSON, budget+uint64(16*b)+uint64(i), ""))
			if string(it.Body) != strings.TrimRight(string(want), "\n") {
				t.Errorf("batch %d item %d: body differs from standalone evaluation", b, i)
			}
		}
	}
}

// TestBatchReadErrorReplayed: a batch body whose read fails gets the 400
// that a json.Decoder reading the body itself words (batchReference): a
// syntax error met before the failure, the read error where the decoder
// needed more bytes, and trailing data where the object was complete
// before it.
func TestBatchReadErrorReplayed(t *testing.T) {
	srv := NewServer(ServeOptions{})
	defer srv.Abort()
	reset := errors.New("connection reset")
	for _, prefix := range []string{`{"items":[{"demo":`, `{"items":[{"demo":{"size":8}}]}`, `{"items":[{"demo" x`, ``} {
		body := func() io.Reader { return io.MultiReader(strings.NewReader(prefix), &errReader{reset}) }
		_, wantErr := batchReference(body())
		if wantErr == nil {
			t.Fatalf("%q: the reference decoded a failed read", prefix)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/explore/batch", body()))
		want := string(mustMarshal(errorResponse{Error: wantErr.Error()})) + "\n"
		if rec.Code != http.StatusBadRequest || rec.Body.String() != want {
			t.Errorf("%q: %d %q, want 400 %q", prefix, rec.Code, rec.Body.String(), want)
		}
	}
}
