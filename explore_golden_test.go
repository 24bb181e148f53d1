package dtse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// goldenRequest is one entry of the /v1/explore golden corpus.
type goldenRequest struct {
	name string
	body string
	// singleOnly marks a body that cannot be a batch item: an item is one
	// JSON value by construction, so trailing data never reaches its parse.
	singleOnly bool
}

// goldenCorpus is the fixed request corpus behind testdata/explore.golden:
// the demo, the internal/workloads generators under their own real-time
// contexts, seeded random specs shaped like the benchmark's, and the three
// client-error classes.
func goldenCorpus(t *testing.T) []goldenRequest {
	t.Helper()
	reqs := []goldenRequest{
		{name: "demo-16", body: `{"demo": {"size": 16}}`},
		{name: "demo-64", body: `{"demo": {"size": 64}}`},
	}
	type workload struct {
		name  string
		build func() (*Spec, workloads.Context, error)
	}
	for _, w := range []workload{
		{"motion-estimation", func() (*Spec, workloads.Context, error) { return workloads.MotionEstimation(176, 144, 16, 7) }},
		{"wavelet", func() (*Spec, workloads.Context, error) { return workloads.Wavelet(256, 256, 3) }},
		{"fir", func() (*Spec, workloads.Context, error) { return workloads.FIRFilter(48_000, 64) }},
		{"atm-shared", func() (*Spec, workloads.Context, error) { return workloads.ATMSwitch("atm-shared", true) }},
		{"atm-partitioned", func() (*Spec, workloads.Context, error) { return workloads.ATMSwitch("atm-partitioned", false) }},
	} {
		s, ctx, err := w.build()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var buf bytes.Buffer
		if err := WriteSpecJSON(s, &buf); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, goldenRequest{name: w.name, body: fmt.Sprintf(
			`{"spec": %s, "budget": %d, "params": {"threshold": %d, "frame": %g}}`,
			buf.Bytes(), ctx.CycleBudget, ctx.OnChipMaxWords, ctx.FramePeriod)})
	}
	for seed := int64(0); seed < 5; seed++ {
		reqs = append(reqs, goldenRequest{name: fmt.Sprintf("random-5to7-seed%d", seed), body: randClusterSpec(t, seed)})
	}
	for seed := int64(0); seed < 4; seed++ {
		reqs = append(reqs, goldenRequest{name: fmt.Sprintf("random-10to13-seed%d", seed), body: largeClusterSpec(t, seed)})
	}
	_, svc, budget := serviceSpec(t)
	reqs = append(reqs,
		goldenRequest{name: "params", body: specBody(svc, budget,
			`"params": {"onchip": 2, "threshold": 0, "frame": 0.5, "inplace": true, "interconnect": true}`)},
		goldenRequest{name: "400-unknown-field", body: `{"demo": {"size": 16}, "bogus": 1}`},
		goldenRequest{name: "400-trailing-data", body: `{"demo": {"size": 16}} {"demo": {"size": 16}}`, singleOnly: true},
		goldenRequest{name: "422-infeasible-budget", body: specBody(svc, 1, "")},
	)
	return reqs
}

// goldenAnswer is one response as the golden file records it.
type goldenAnswer struct {
	status int
	body   []byte
}

func (a goldenAnswer) String() string { return fmt.Sprintf("status %d\n%s", a.status, a.body) }

// TestExploreGolden pins the status and body bytes of /v1/explore over a
// fixed corpus, and requires every request to be answered the same three
// ways: as a single POST, as a one-item batch, and inside one batch holding
// the whole corpus. Each way runs on its own fresh server, so each one
// computes rather than replays another's cache. Regenerate with -update
// only for a deliberate change of response bytes.
func TestExploreGolden(t *testing.T) {
	corpus := goldenCorpus(t)
	fresh := func() *httptest.Server {
		srv := NewServer(ServeOptions{})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Abort() })
		return ts
	}

	single := fresh()
	var got bytes.Buffer
	answers := make([]goldenAnswer, len(corpus))
	for i, g := range corpus {
		resp, body := postURL(t, single.URL, "/v1/explore", g.body)
		answers[i] = goldenAnswer{resp.StatusCode, body}
		fmt.Fprintf(&got, "== %s\n%s", g.name, answers[i])
	}

	golden := filepath.Join("testdata", "explore.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("single POST answers differ from golden %s (rerun with -update if intentional):\n%s",
			golden, diffLines(want, got.Bytes()))
	}

	// batchAnswers posts items as one batch and returns each item's answer
	// with the newline a standalone body ends in.
	batchAnswers := func(ts *httptest.Server, items []string) []goldenAnswer {
		t.Helper()
		resp, body := postURL(t, ts.URL, "/v1/explore/batch", batchBody(items...))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch of %d: status %d: %s", len(items), resp.StatusCode, body)
		}
		var env batchResponse
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("batch envelope: %v", err)
		}
		if len(env.Items) != len(items) {
			t.Fatalf("batch of %d answered %d items", len(items), len(env.Items))
		}
		out := make([]goldenAnswer, len(items))
		for i, it := range env.Items {
			out[i] = goldenAnswer{it.Status, append(append([]byte(nil), it.Body...), '\n')}
		}
		return out
	}
	check := func(way string, i int, a goldenAnswer) {
		t.Helper()
		if a.status != answers[i].status || !bytes.Equal(a.body, answers[i].body) {
			t.Errorf("%s: %s answer differs from the golden single POST:\n got: %.300s\nwant: %.300s",
				corpus[i].name, way, a, answers[i])
		}
	}

	oneItem := fresh()
	var all []string
	var allIdx []int
	for i, g := range corpus {
		if g.singleOnly {
			continue
		}
		check("one-item batch", i, batchAnswers(oneItem, []string{g.body})[0])
		all = append(all, g.body)
		allIdx = append(allIdx, i)
	}
	for j, a := range batchAnswers(fresh(), all) {
		check("whole-corpus batch", allIdx[j], a)
	}
	if len(all) > maxBatchItems {
		t.Fatalf("corpus of %d batchable requests exceeds the batch limit %d", len(all), maxBatchItems)
	}
	if !strings.Contains(got.String(), "status 422") {
		t.Error("corpus has no infeasible-budget answer")
	}
}
