package dtse

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/obs"
)

// serviceSpec is a small but non-trivial pruned specification for the
// serving tests: two dependent accesses per iteration over one frame-sized
// array.
func serviceSpec(t *testing.T) (*Spec, []byte, uint64) {
	t.Helper()
	b := NewSpec("svc")
	b.Group("frame", 4096, 8)
	b.Loop("body", 4096)
	r := b.Read("frame", 1)
	b.Write("frame", 1, r)
	s := b.MustBuild()
	var buf bytes.Buffer
	if err := WriteSpecJSON(s, &buf); err != nil {
		t.Fatal(err)
	}
	return s, buf.Bytes(), 3 * 4096
}

func postExplore(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/explore", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func specBody(specJSON []byte, budget uint64, extra string) string {
	if extra != "" {
		extra = ", " + extra
	}
	return fmt.Sprintf(`{"spec": %s, "budget": %d%s}`, specJSON, budget, extra)
}

// TestServerSpecExplore: the happy path — a spec-mode request returns the
// same organization the library's Explore produces, with a trace ID header.
func TestServerSpecExplore(t *testing.T) {
	s, specJSON, budget := serviceSpec(t)
	srv := NewServer(ServeOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postExplore(t, ts, specBody(specJSON, budget, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Fatal("response missing X-Trace-Id")
	}
	var env struct {
		Variant *core.VariantWire `json:"variant"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	if env.Variant == nil {
		t.Fatalf("no variant in response: %s", body)
	}

	want, err := Explore(s, budget, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	v := env.Variant
	if v.Cost.OnChipAreaMM2 != want.Cost.OnChipArea ||
		v.Cost.OnChipPowerMW != want.Cost.OnChipPower ||
		v.Cost.OffChipPowerMW != want.Cost.OffChipPower {
		t.Fatalf("served cost %+v != library cost %+v", v.Cost, want.Cost)
	}
	if !v.Optimal || v.Degraded {
		t.Fatalf("unconstrained exploration served best-effort: optimal=%v degraded=%v", v.Optimal, v.Degraded)
	}
	if v.BudgetUsed != want.Dist.Used || v.ExtraCycles != want.Dist.ExtraCycles() {
		t.Fatalf("budget accounting differs: served used=%d extra=%d, library used=%d extra=%d",
			v.BudgetUsed, v.ExtraCycles, want.Dist.Used, want.Dist.ExtraCycles())
	}
	if len(v.OnChip)+len(v.OffChip) == 0 {
		t.Fatal("no memory bindings in response")
	}
}

// TestServerBadRequests: malformed bodies are 400 with a client-readable
// error, never a panic or a hang.
func TestServerBadRequests(t *testing.T) {
	_, specJSON, budget := serviceSpec(t)
	srv := NewServer(ServeOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := map[string]string{
		"not json":            `{`,
		"empty":               `{}`,
		"spec without budget": fmt.Sprintf(`{"spec": %s}`, specJSON),
		"spec and demo":       fmt.Sprintf(`{"spec": %s, "budget": %d, "demo": {"size": 64}}`, specJSON, budget),
		"unknown field":       `{"demo": {"size": 64}, "bogus": 1}`,
		"invalid spec":        `{"spec": {"name": "x", "loops": [{"name": "l", "iterations": 1, "accesses": [{"group": "missing", "count": 1}]}]}, "budget": 100}`,
		"negative timeout":    `{"demo": {"size": 64}, "timeout_ms": -5}`,
		"demo with params":    `{"demo": {"size": 64}, "params": {"onchip": 2}}`,
		"bad params":          specBody(specJSON, budget, `"params": {"onchip": -1}`),
		"oversized demo":      `{"demo": {"size": 100000}}`,
		"two objects":         `{"demo": {"size": 64}} {"demo": {"size": 64}}`,
		"stray brace":         `{"demo": {"size": 64}}}`,
	}
	for name, body := range cases {
		resp, b := postExplore(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, b)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(b, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body unreadable: %s", name, b)
		}
	}

	if resp, err := http.Get(ts.URL + "/v1/explore"); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/explore: %v, want 405", err)
	}

	// An infeasible exploration (budget below the weighted MACP) is the
	// client's problem, not the server's.
	resp, _ := postExplore(t, ts, specBody(specJSON, 1, ""))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("infeasible budget: status %d, want 422", resp.StatusCode)
	}
}

// TestExploreNullSpec: a JSON null spec is an absent spec. Alone with a
// budget it is the missing-mode error; beside a demo it is the demo.
func TestExploreNullSpec(t *testing.T) {
	srv := NewServer(ServeOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, demoBody := postExplore(t, ts, `{"demo":{"size":64}}`)
	cases := []struct {
		body   string
		status int
		want   string
	}{
		{`{"spec":null,"budget":5}`, http.StatusBadRequest,
			`{"error":"exactly one of spec or demo must be set"}` + "\n"},
		{`{"spec":null,"demo":{"size":64}}`, http.StatusOK, string(demoBody)},
	}
	for _, c := range cases {
		resp, body := postExplore(t, ts, c.body)
		if resp.StatusCode != c.status || string(body) != c.want {
			t.Errorf("%s: status %d, body %.200q; want %d, %.200q",
				c.body, resp.StatusCode, body, c.status, c.want)
		}
	}
}

// parseAllocsCeiling is the committed allocation ceiling of one
// parseExplore call on a spec_hot-shaped body: the measured 16.5 under the
// race detector, which CI also runs this test under (14.4 without it),
// plus about 10 %. Decoding through encoding/json made 78.5 (the one-pass
// decode of the canonical subset replaced it), and re-scanning and
// reflectively re-encoding the spec before that made 126.
const parseAllocsCeiling = 18

// TestParseExploreAllocs pins the parse layer's allocation count.
func TestParseExploreAllocs(t *testing.T) {
	bodies := specHotBodies(16)
	perBody := testing.AllocsPerRun(20, func() {
		for _, b := range bodies {
			if _, _, err := parseExplore(b, nil); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(len(bodies))
	t.Logf("parseExplore: %.1f allocs per spec_hot-shaped body", perBody)
	if perBody > parseAllocsCeiling {
		t.Errorf("parseExplore makes %.1f allocs per body, ceiling %d", perBody, parseAllocsCeiling)
	}
}

// handOffBodies holds one request body of each kind the one-pass decoder
// leaves to encoding/json: escapes and non-ASCII bytes in a string, a
// case-variant, a duplicate and an unknown key, null members, numbers
// outside the JSON grammar (01, 1., +1, -), an exponent or a negative
// zero where the field takes integer literals, out of range integers,
// trailing data, and an empty body. FuzzExploreRequest seeds its corpus
// with them.
var handOffBodies = []string{
	`{"spec":` + seedSpec(`"name":"e\u0073c"`, "") + `,"budget":900}`,
	`{"spec":` + seedSpec(`"name":"caf\u00e9"`, "") + `,"budget":900}`,
	`{"spec":` + seedSpec(`"name":"café"`, "") + `,"budget":900}`,
	`{"spec":` + seedSpec(`"name":"tab\tstop"`, "") + `,"budget":900}`,
	`{"spec":` + seedSpec(`"Name":"case"`, "") + `,"budget":900}`,
	`{"spec":` + seedSpec(`"name":"dup"`, "") + `,"budget":900,"Budget":901}`,
	`{"spec":` + seedSpec(`"name":"dup"`, "") + `,"budget":900,"budget":901}`,
	`{"demo":{"size":8},"demo":{"seed":2}}`,
	`{"spec":` + seedSpec(`"name":"unknown","bogus":1`, "") + `,"budget":900}`,
	`{"spec":` + seedSpec(`"name":"nul"`, "") + `,"budget":900,"params":null}`,
	`{"spec":null,"demo":{"size":8}}`,
	`{"spec":` + seedSpec(`"name":null`, "") + `,"budget":900}`,
	`{"spec":` + seedSpec(`"name":"zero"`, "") + `,"budget":01}`,
	`{"spec":` + seedSpec(`"name":"dot"`, "") + `,"budget":900,"params":{"frame":1.}}`,
	`{"spec":` + seedSpec(`"name":"plus"`, "") + `,"budget":+1}`,
	`{"spec":` + seedSpec(`"name":"minus"`, "") + `,"budget":900,"timeout_ms":-}`,
	`{"spec":` + seedSpec(`"name":"exp"`, "") + `,"budget":1e3}`,
	`{"spec":` + seedSpec(`"name":"negzero"`, "") + `,"budget":-0}`,
	`{"spec":` + seedSpec(`"name":"big"`, "") + `,"budget":18446744073709551616}`,
	`{"demo":{"size":8,"quant":9223372036854775808}}`,
	`{"spec":` + seedSpec(`"name":"float"`, "") + `,"budget":900,"params":{"frame":1e999}}`,
	`{"demo":{"size":8}} {"demo":{"size":8}}`,
	`{"demo":{"size":8}}]`,
	``,
	`   `,
}

// onePassBodies holds request bodies the one-pass decoder takes, among
// them the edge cases where its result must still equal encoding/json's:
// "deps":[] (an empty slice) and an absent deps (nil), empty arrays (nil),
// a negative zero count and deadline, an empty demo, whitespace, and
// bodies that parse to a 400.
var onePassBodies = []string{
	`{"spec":` + seedSpec(`"name":"deps"`, `,"deps":[]`) + `,"budget":900}`,
	`{"spec":` + seedSpec(`"name":"nodeps"`, ``) + `,"budget":900}`,
	`{"spec":` + seedSpec(`"name":"onedep"`, `,"deps":[0]`) + `,"budget":900,"timeout_ms":-0}`,
	`{"spec":{"name":"empty","groups":[],"loops":[]},"budget":900}`,
	`{"spec":{"name":"none"},"budget":900}`,
	`{"spec":{"name":"noaccess","groups":[{"name":"g","words":64,"bits":8}],"loops":[{"name":"l","iterations":10,"accesses":[]}]},"budget":900}`,
	`{"spec":{"name":"negzero","groups":[{"name":"g","words":64,"bits":8}],"loops":[{"name":"l","iterations":10,"accesses":[{"group":"g","count":-0},{"group":"g","count":1.5e0,"site":"s","branch":"b"}]}]},"budget":900}`,
	` { "spec" : ` + seedSpec(`"name":"spaced"`, "") + ` ,` + "\n\t" + `"budget" : 900 , "params" : { "onchip" : 2 , "threshold" : 0 , "frame" : 0.5 , "inplace" : false , "interconnect" : true } } ` + "\r\n",
	`{"demo":{}}`,
	`{"demo":{"size":8,"seed":3,"quant":2},"timeout_ms":0}`,
	`{"demo":{"size":8},"budget":5}`,
	`{"demo":{"size":-1}}`,
	`{"spec":` + seedSpec(`"name":"badgroup"`, "") + `}`,
	`{"spec":{"name":"x","groups":[{"name":"g","words":0,"bits":8}]},"budget":9}`,
	`{}`,
}

// seedSpec is a small valid spec object with name (a member, or members)
// first and extra appended to its second access.
func seedSpec(name, extra string) string {
	return `{` + name + `,"groups":[{"name":"g","words":64,"bits":8}],"loops":[{"name":"l","iterations":10,"accesses":[{"group":"g","count":1},{"group":"g","write":true,"count":1` + extra + `}]}]}`
}

// TestReadExploreHandsOff pins the boundary of the canonical subset: every
// hand-off body goes to encoding/json and counts one
// server.parse_fallbacks, and every one-pass body is decoded in one pass
// and counts none. FuzzExploreRequest checks that both decode as the
// reference does.
func TestReadExploreHandsOff(t *testing.T) {
	o := obs.New()
	fallbacks := o.Counter("server.parse_fallbacks")
	for _, b := range handOffBodies {
		before := fallbacks.Value()
		if _, ok := readExplore([]byte(b)); ok {
			t.Errorf("one-pass decode took %q", b)
		}
		parseExplore([]byte(b), o)
		if fallbacks.Value() != before+1 {
			t.Errorf("%q: parse_fallbacks moved by %d, want 1", b, fallbacks.Value()-before)
		}
	}
	for _, b := range onePassBodies {
		if _, ok := readExplore([]byte(b)); !ok {
			t.Errorf("one-pass decode handed off %q", b)
		}
		before := fallbacks.Value()
		parseExplore([]byte(b), o)
		if fallbacks.Value() != before {
			t.Errorf("%q counted a fallback", b)
		}
	}
}

// TestServedShapesTakeOnePass: the bodies the benchmark sends are all in
// the canonical subset, on every node of a ring. That covers
// spec_hot-shaped and spec_cold-shaped single posts and a
// ring_batch-shaped batch, whose sub-batches the front re-encodes with
// json.Marshal for their owners. No node counts a
// server.parse_fallbacks, until a body outside the subset counts one.
func TestServedShapesTakeOnePass(t *testing.T) {
	observers := make([]*obs.Observer, 3)
	tc := newTestCluster(t, 3, func(i int) ServeOptions {
		observers[i] = obs.New()
		return ServeOptions{Obs: observers[i]}
	}, ClusterOptions{GossipInterval: time.Hour})
	for _, b := range append(specHotBodies(3), specBodies(11, "cold", 3, 12, 13)...) {
		if resp, body := postURL(t, tc.urls[0], "/v1/explore", string(b)); resp.StatusCode != http.StatusOK {
			t.Fatalf("single post: status %d: %s", resp.StatusCode, body)
		}
	}
	var items []string
	for seed := int64(10); seed < 18; seed++ {
		items = append(items, largeClusterSpec(t, seed))
	}
	resp, body := postURL(t, tc.urls[0], "/v1/explore/batch", `{"items":[`+strings.Join(items, ",")+`]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"trace_id":"`+resp.Header.Get("X-Trace-Id")+`.p`)) {
		t.Fatal("no batch item was forwarded to a peer")
	}
	for i, o := range observers {
		if n := o.Counters()["server.parse_fallbacks"]; n != 0 {
			t.Errorf("node %d: %d parse fallbacks, want 0", i, n)
		}
	}
	if resp, _ := postURL(t, tc.urls[0], "/v1/explore", `{"Budget":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("case-variant key: status %d, want 400", resp.StatusCode)
	}
	if n := observers[0].Counters()["server.parse_fallbacks"]; n != 1 {
		t.Errorf("after one body outside the subset: %d parse fallbacks, want 1", n)
	}
}

// TestServerOverload: with every exploration slot taken and the admission
// queue full, the server answers 429 with a Retry-After hint instead of
// queueing unboundedly.
func TestServerOverload(t *testing.T) {
	_, specJSON, budget := serviceSpec(t)
	srv := NewServer(ServeOptions{MaxConcurrent: 1, MaxQueue: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the single exploration slot and the single queue seat
	// directly — deterministic, no timing games.
	srv.sem <- struct{}{}
	srv.queued.Add(1)
	defer func() { <-srv.sem; srv.queued.Add(-1) }()

	resp, body := postExplore(t, ts, specBody(specJSON, budget, ""))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestServerTimeoutHonoredAndNotCached is the serving-layer pin of the
// cache-poisoning fix: a tight-deadline request degrades to best-effort,
// and an identical unlimited request afterwards must be answered with the
// full result — byte-identical to an uncached server's — not with the
// cached degraded one.
func TestServerTimeoutHonoredAndNotCached(t *testing.T) {
	srv := NewServer(ServeOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	demo := `{"demo": {"size": 64}}`

	// 1. Tight deadline: still 200, flagged best-effort.
	resp, degraded := postExplore(t, ts, `{"demo": {"size": 64}, "timeout_ms": 1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded request: status %d: %s", resp.StatusCode, degraded)
	}
	var denv struct {
		Results *core.ResultsWire `json:"results"`
	}
	if err := json.Unmarshal(degraded, &denv); err != nil || denv.Results == nil {
		t.Fatalf("degraded response unreadable: %v\n%s", err, degraded)
	}
	if denv.Results.Final.Optimal && !denv.Results.Final.Degraded {
		t.Fatal("1ms deadline produced a proven-optimal, non-degraded result — deadline not honored")
	}

	// 2. Unlimited request on the same session.
	resp, warm := postExplore(t, ts, demo)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm request: status %d: %s", resp.StatusCode, warm)
	}

	// 3. Reference: a cache-disabled server.
	plainSrv := NewServer(ServeOptions{NoCache: true})
	tsPlain := httptest.NewServer(plainSrv.Handler())
	defer tsPlain.Close()
	resp, plain := postExplore(t, tsPlain, demo)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("uncached request: status %d: %s", resp.StatusCode, plain)
	}

	if !bytes.Equal(warm, plain) {
		t.Fatalf("degraded response poisoned the session: warm body differs from uncached body\nwarm:\n%s\nuncached:\n%s", warm, plain)
	}
}

// TestServerDemoConcurrentMatchesCmd is the acceptance criterion: four
// concurrent demo requests (run under -race in CI) return tables
// byte-for-byte identical to what cmd/dtse renders for the same inputs,
// and identical to each other (deduplicated through the session).
func TestServerDemoConcurrentMatchesCmd(t *testing.T) {
	srv := NewServer(ServeOptions{MaxConcurrent: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 4
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/explore", "application/json",
				strings.NewReader(`{"demo": {"size": 64}}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d err %v", i, resp.StatusCode, err)
				return
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("concurrent identical requests returned different bodies (client 0 vs %d)", i)
		}
	}

	var env struct {
		Results *core.ResultsWire `json:"results"`
	}
	if err := json.Unmarshal(bodies[0], &env); err != nil || env.Results == nil {
		t.Fatalf("demo response unreadable: %v", err)
	}

	// cmd/dtse prints res.TableN().Render() from RunAll with the default
	// parameters — exactly what the server must serve.
	res, err := core.RunAll(core.DemoConfig{Size: 64}, core.DefaultEvalParams())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"table1":  res.Table1().Render(),
		"table2":  res.Table2().Render(),
		"table3":  res.Table3().Render(),
		"table4":  res.Table4().Render(),
		"figure1": res.Figure1(),
		"figure2": res.Figure2(),
		"figure3": res.Figure3(),
	}
	for name, w := range want {
		got, ok := env.Results.Tables[name]
		if !ok {
			got, ok = env.Results.Figures[name]
		}
		if !ok {
			t.Errorf("response missing %s", name)
			continue
		}
		if got != w {
			t.Errorf("%s differs from the cmd/dtse render:\nserved:\n%s\nlocal:\n%s", name, got, w)
		}
	}

	// The four identical in-flight requests must have shared one
	// exploration (singleflight): exactly one miss in the request keyspace.
	if st := srv.memo.Stats(memo.Requests); st.Misses != 1 {
		t.Errorf("request keyspace misses = %d, want 1 (concurrent duplicates must singleflight)", st.Misses)
	}
}

// TestServerConcurrentObserverSafety: many concurrent explorations sharing
// one Observer with a JSONL sink must produce only well-formed JSONL
// records, and concurrent /metrics snapshots must not race with them.
// (Run with -race; the assertions here catch corruption, the detector
// catches the races.)
func TestServerConcurrentObserverSafety(t *testing.T) {
	_, specJSON, budget := serviceSpec(t)
	var buf syncBuffer
	observer := obs.New(obs.NewJSONL(&buf))
	const n = 8
	// A queue seat for every client: on a host with few CPUs the default
	// queue (twice GOMAXPROCS) is smaller than n, and an overload 429 is
	// not what this test is about.
	srv := NewServer(ServeOptions{Obs: observer, MaxQueue: n})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct budgets defeat deduplication: every request runs a
			// real exploration concurrently with the others.
			resp, body := postExploreRaw(ts.URL, specBody(specJSON, budget+uint64(i), ""))
			if resp == nil || resp.StatusCode != http.StatusOK {
				t.Errorf("client %d failed: %s", i, body)
			}
		}(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := http.Get(ts.URL + "/metrics.json")
			if resp != nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	if err := observer.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))
	if len(lines) < n {
		t.Fatalf("only %d JSONL records for %d explorations", len(lines), n)
	}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("corrupt JSONL record %d: %v\n%q", i, err, line)
		}
	}
}

func postExploreRaw(url, body string) (*http.Response, []byte) {
	resp, err := http.Post(url+"/v1/explore", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, []byte(err.Error())
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

// syncBuffer is a mutex-guarded bytes.Buffer: the JSONL sink serializes its
// own writes, but the test also reads the buffer afterwards, and -race has
// no way to know those phases don't overlap without the lock.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestServerDedupAndMetrics: a repeated identical request is answered from
// the session (dedup hit), and /metrics reports the request counters and
// latency percentiles.
func TestServerDedupAndMetrics(t *testing.T) {
	_, specJSON, budget := serviceSpec(t)
	srv := NewServer(ServeOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := specBody(specJSON, budget, "")
	_, first := postExplore(t, ts, body)
	_, second := postExplore(t, ts, body)
	if !bytes.Equal(first, second) {
		t.Fatal("identical requests returned different bodies")
	}
	// Whitespace and field order must not defeat deduplication: the same
	// request reserialized still hits.
	var loose map[string]any
	if err := json.Unmarshal([]byte(body), &loose); err != nil {
		t.Fatal(err)
	}
	reser, _ := json.Marshal(loose)
	_, third := postExplore(t, ts, string(reser))
	if !bytes.Equal(first, third) {
		t.Fatal("reserialized identical request returned a different body")
	}

	resp, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Server struct {
			Requests     int64 `json:"requests_total"`
			OK           int64 `json:"responses_2xx"`
			LatencyCount int64 `json:"latency_count"`
			LatencyP50US int64 `json:"latency_p50_us"`
			LatencyP99US int64 `json:"latency_p99_us"`
		} `json:"server"`
		Obs struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"obs"`
		Memo map[string]struct {
			Hits   int64 `json:"Hits"`
			Misses int64 `json:"Misses"`
		} `json:"memo"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Server.Requests != 3 || m.Server.OK != 3 {
		t.Fatalf("metrics counted %d requests / %d 2xx, want 3/3", m.Server.Requests, m.Server.OK)
	}
	if m.Server.LatencyCount != 3 || m.Server.LatencyP99US < m.Server.LatencyP50US {
		t.Fatalf("latency accounting wrong: %+v", m.Server)
	}
	req := m.Memo["requests"]
	if req.Hits < 2 || req.Misses != 1 {
		t.Fatalf("request keyspace: %d hits / %d misses, want >=2 / 1", req.Hits, req.Misses)
	}
}

// TestServerDrainAndAbort: draining flips /healthz to 503 and refuses new
// explorations; Abort degrades an in-flight exploration, whose response
// still completes.
func TestServerDrainAndAbort(t *testing.T) {
	_, specJSON, budget := serviceSpec(t)
	srv := NewServer(ServeOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %v %v", resp, err)
	}

	// An in-flight demo exploration to drain across. Size 256 is slow
	// enough to still be running when Abort fires.
	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		resp, body := postExploreRaw(ts.URL, `{"demo": {"size": 256}}`)
		if resp == nil {
			done <- result{0, body}
			return
		}
		done <- result{resp.StatusCode, body}
	}()
	for i := 0; srv.Inflight() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if srv.Inflight() == 0 {
		t.Fatal("exploration never became in-flight")
	}

	srv.BeginDrain()
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %v %v", resp, err)
	}
	if resp, body := postExplore(t, ts, specBody(specJSON, budget, "")); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("explore during drain: status %d: %s", resp.StatusCode, body)
	}

	srv.Abort()
	select {
	case r := <-done:
		if r.status != http.StatusOK {
			t.Fatalf("aborted exploration: status %d: %s", r.status, r.body)
		}
		var env struct {
			Results *core.ResultsWire `json:"results"`
		}
		if err := json.Unmarshal(r.body, &env); err != nil || env.Results == nil {
			t.Fatalf("aborted response unreadable: %v", err)
		}
		if env.Results.Final.Optimal && !env.Results.Final.Degraded {
			t.Fatal("aborted exploration served a proven-optimal, non-degraded result")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("aborted exploration never completed")
	}
}

// TestServerQueuedDeadlineStartsAtExploration: an item's timeout_ms starts
// when the item starts exploring, not when its request joins the queue. A
// single POST queued behind a held slot for longer than its own deadline
// is answered 200 once the slot is released, not 429.
func TestServerQueuedDeadlineStartsAtExploration(t *testing.T) {
	_, specJSON, budget := serviceSpec(t)
	srv := NewServer(ServeOptions{MaxConcurrent: 1, MaxQueue: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.sem <- struct{}{}
	type answer struct {
		resp *http.Response
		body []byte
	}
	done := make(chan answer, 1)
	go func() {
		resp, body := postExploreRaw(ts.URL, specBody(specJSON, budget, `"timeout_ms": 20`))
		done <- answer{resp, body}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // five times the request's deadline
	<-srv.sem
	a := <-done
	if a.resp == nil {
		t.Fatalf("queued request failed: %s", a.body)
	}
	if a.resp.StatusCode != http.StatusOK {
		t.Fatalf("queued request: status %d, want 200: %s", a.resp.StatusCode, a.body)
	}
}

// TestServerInternalRequestNotAdmitted: a cluster-internal request is
// never admitted, because the origin's slot accounts for it. A peer's
// group of one is served while every slot and queue seat is held, and its
// item takes the request's trace id.
func TestServerInternalRequestNotAdmitted(t *testing.T) {
	_, specJSON, budget := serviceSpec(t)
	srv := NewServer(ServeOptions{MaxConcurrent: 1, MaxQueue: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Abort()
	if err := srv.JoinCluster(ClusterOptions{Self: ts.URL, GossipInterval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	srv.sem <- struct{}{}
	srv.queued.Add(1)
	defer func() { <-srv.sem; srv.queued.Add(-1) }()

	item := specBody(specJSON, budget, "")
	if resp, body := postExplore(t, ts, item); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("external request: status %d, want 429: %s", resp.StatusCode, body)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/explore/batch", strings.NewReader(batchBody(item)))
	req.Header.Set(clusterInternalHeader, "1")
	req.Header.Set("X-Trace-Id", "front-000001.p1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("internal group: status %d, decode %v", resp.StatusCode, err)
	}
	if len(env.Items) != 1 || env.Items[0].Status != http.StatusOK || env.Items[0].TraceID != "front-000001.p1" {
		t.Fatalf("internal group of one answered %+v", env.Items)
	}
}

// TestServerNoCacheIgnoresDisk: with NoCache the disk tier is not wired in.
// An owned handoff record is answered 204 but neither imported into the
// tier nor counted, and /metrics.json carries no disk block.
func TestServerNoCacheIgnoresDisk(t *testing.T) {
	disk, err := memo.OpenDiskTier(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	s := newHandoffNode(t, ServeOptions{Obs: obs.New(), NoCache: true, Disk: disk})
	owned, _ := handoffKeys(t, s)
	val, _ := encodeServed(&servedResponse{status: http.StatusOK, body: []byte("{}\n")})
	body := mustMarshal(handoffWire{From: "http://peer.test", Records: []handoffRec{{Key: owned, Val: val}}})
	if rec := postHandoff(s, body); rec.Code != http.StatusNoContent {
		t.Fatalf("handoff: status %d: %s", rec.Code, rec.Body)
	}
	if n := disk.Stats().Imported; n != 0 {
		t.Fatalf("disk tier imported %d record(s) under NoCache, want 0", n)
	}
	if n := s.obs.Counter("cluster.handoff_entries").Value(); n != 0 {
		t.Fatalf("handoff_entries = %d under NoCache, want 0", n)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics.json", nil))
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap["disk"]; ok {
		t.Fatalf("/metrics.json carries a disk block under NoCache: %s", snap["disk"])
	}
}

// serveBody posts body to path through srv's handler.
func serveBody(srv *Server, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// checkStats fails unless keyspace sp of srv's cache counts the given
// hits, misses and resident entries.
func checkStats(t *testing.T, srv *Server, sp memo.Space, hits, misses int64, entries int) {
	t.Helper()
	if st := srv.memo.Stats(sp); st.Hits != hits || st.Misses != misses || st.Entries != entries {
		t.Fatalf("%v: %d hits, %d misses, %d entries; want %d, %d, %d",
			sp, st.Hits, st.Misses, st.Entries, hits, misses, entries)
	}
}

// TestServerAliasRepeat: a repeated body is answered from the Aliases
// keyspace (no parse) and the Requests keyspace, byte for byte.
func TestServerAliasRepeat(t *testing.T) {
	_, specJSON, budget := serviceSpec(t)
	srv := NewServer(ServeOptions{})
	body := []byte(specBody(specJSON, budget, ""))
	first := serveBody(srv, "/v1/explore", body)
	second := serveBody(srv, "/v1/explore", body)
	if first.Code != http.StatusOK || second.Code != first.Code || second.Body.String() != first.Body.String() {
		t.Fatalf("repeat answered %d %.200q, first %d %.200q", second.Code, second.Body, first.Code, first.Body)
	}
	checkStats(t, srv, memo.Aliases, 1, 1, 1)
	checkStats(t, srv, memo.Requests, 1, 1, 1)
}

// TestServerAliasReformattedBody: reindenting the body or reordering its
// fields makes new bytes, so a new alias, of the same Requests entry.
func TestServerAliasReformattedBody(t *testing.T) {
	_, specJSON, budget := serviceSpec(t)
	srv := NewServer(ServeOptions{Obs: obs.New()})
	body := []byte(specBody(specJSON, budget, ""))
	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		t.Fatal(err)
	}
	bodies := [][]byte{body, compact.Bytes(), fmt.Appendf(nil, `{"budget": %d, "spec": %s}`, budget, specJSON)}
	want := serveBody(srv, "/v1/explore", body).Body.String()
	for i, b := range bodies {
		if got := serveBody(srv, "/v1/explore", b); got.Code != http.StatusOK || got.Body.String() != want {
			t.Fatalf("body %d answered %d %.200q, want %.200q", i, got.Code, got.Body, want)
		}
	}
	checkStats(t, srv, memo.Aliases, 1, 3, 3)
	checkStats(t, srv, memo.Requests, 3, 1, 1)
	if n := srv.obs.Counter("server.dedup_hits").Value(); n != 3 {
		t.Fatalf("dedup_hits = %d, want 3", n)
	}
}

// TestServerAliasTimeoutVariants: timeout_ms is part of the raw bytes, so
// deadline variants are separate aliases of one Requests entry: only
// completed explorations are cached, and one is valid under any deadline.
func TestServerAliasTimeoutVariants(t *testing.T) {
	_, specJSON, budget := serviceSpec(t)
	srv := NewServer(ServeOptions{})
	want := serveBody(srv, "/v1/explore", []byte(specBody(specJSON, budget, ""))).Body.String()
	for _, ms := range []int{60000, 120000} {
		got := serveBody(srv, "/v1/explore", []byte(specBody(specJSON, budget, fmt.Sprintf(`"timeout_ms": %d`, ms))))
		if got.Code != http.StatusOK || got.Body.String() != want {
			t.Fatalf("timeout_ms %d answered %d %.200q, want %.200q", ms, got.Code, got.Body, want)
		}
	}
	checkStats(t, srv, memo.Aliases, 0, 3, 3)
	checkStats(t, srv, memo.Requests, 2, 1, 1)
}

// TestServerAliasBadBodiesNotStored: a body that fails to parse never
// enters the Aliases keyspace, so every post of it parses and fails again.
func TestServerAliasBadBodiesNotStored(t *testing.T) {
	_, specJSON, budget := serviceSpec(t)
	srv := NewServer(ServeOptions{})
	bad := []string{
		`{"demo": {"size": 16}`,
		`{"demo": {"size": 16}} trailing`,
		`{"spec": null, "budget": 5}`,
		specBody(specJSON, budget, `"params": {"onchip": -1}`),
	}
	for _, b := range bad {
		first := serveBody(srv, "/v1/explore", []byte(b))
		again := serveBody(srv, "/v1/explore", []byte(b))
		if first.Code != http.StatusBadRequest || again.Code != first.Code || again.Body.String() != first.Body.String() {
			t.Fatalf("%.60s: answered %d %q then %d %q, want the same 400 twice", b, first.Code, first.Body, again.Code, again.Body)
		}
	}
	checkStats(t, srv, memo.Aliases, 0, int64(2*len(bad)), 0)
	checkStats(t, srv, memo.Requests, 0, 0, 0)
}

// TestServerAliasEvictedResponse: when a live alias points at a response
// evicted from memory (there is no disk tier), the item is parsed again
// from its raw bytes and explored, and it answers the bytes of a fresh
// server.
func TestServerAliasEvictedResponse(t *testing.T) {
	_, specJSON, budget := serviceSpec(t)
	a := []byte(specBody(specJSON, budget, ""))
	b := []byte(specBody(specJSON, budget+1, ""))
	want := serveBody(NewServer(ServeOptions{NoCache: true}), "/v1/explore", a).Body.String()

	// Size the cap from one response: room for one, not two. The aliases,
	// a few hundred bytes each, all stay.
	probe := NewServer(ServeOptions{CacheBytes: 1 << 30})
	serveBody(probe, "/v1/explore", a)
	held := probe.memo.Stats(memo.Requests).BytesHeld
	srv := NewServer(ServeOptions{CacheBytes: held + held/2})
	serveBody(srv, "/v1/explore", a)
	serveBody(srv, "/v1/explore", b)
	if st := srv.memo.Stats(memo.Requests); st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("requests after two responses: %+v, want one evicted and one held", st)
	}
	got := serveBody(srv, "/v1/explore", a)
	if got.Code != http.StatusOK || got.Body.String() != want {
		t.Fatalf("evicted response answered %d %.200q, want %.200q", got.Code, got.Body, want)
	}
	checkStats(t, srv, memo.Aliases, 1, 2, 2)
	if st := srv.memo.Stats(memo.Requests); st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("requests: %d hits, %d misses; want 0 and 3", st.Hits, st.Misses)
	}
}

// TestServerAliasBatchItems: a batch item aliases by its own raw bytes, so
// an item repeating a single POST's bytes skips the parse, and a batch
// answers each item as the single POST does.
func TestServerAliasBatchItems(t *testing.T) {
	_, specJSON, budget := serviceSpec(t)
	srv := NewServer(ServeOptions{})
	var a, b bytes.Buffer
	json.Compact(&a, []byte(specBody(specJSON, budget, "")))
	json.Compact(&b, []byte(specBody(specJSON, budget+1, "")))
	single := serveBody(srv, "/v1/explore", a.Bytes()).Body.String()
	rec := serveBody(srv, "/v1/explore/batch", []byte(batchBody(a.String(), b.String(), a.String())))
	var env batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusOK || len(env.Items) != 3 {
		t.Fatalf("batch answered %d (%v): %.200q", rec.Code, err, rec.Body)
	}
	if got := string(env.Items[0].Body) + "\n"; got != single || string(env.Items[2].Body) != string(env.Items[0].Body) {
		t.Fatalf("batch item bodies %.100q and %.100q, single POST %.100q", env.Items[0].Body, env.Items[2].Body, single)
	}
	checkStats(t, srv, memo.Aliases, 2, 2, 2)
	if want := serveBody(srv, "/v1/explore", b.Bytes()).Body.String(); string(env.Items[1].Body)+"\n" != want {
		t.Fatalf("batch item %.100q, single POST %.100q", env.Items[1].Body, want)
	}
	checkStats(t, srv, memo.Aliases, 3, 2, 2)
}

// TestServerAliasDemo: a demo-mode body aliases like a spec-mode one.
func TestServerAliasDemo(t *testing.T) {
	srv := NewServer(ServeOptions{})
	body := []byte(`{"demo": {"size": 16}}`)
	first := serveBody(srv, "/v1/explore", body)
	second := serveBody(srv, "/v1/explore", body)
	if first.Code != http.StatusOK || second.Body.String() != first.Body.String() {
		t.Fatalf("demo repeat answered %d %.200q, first %d %.200q", second.Code, second.Body, first.Code, first.Body)
	}
	checkStats(t, srv, memo.Aliases, 1, 1, 1)
	checkStats(t, srv, memo.Requests, 1, 1, 1)
}

// TestServerAliasConcurrentColdBodies: N identical cold bodies posted at
// once parse once through the Aliases keyspace and run one exploration;
// the exploration is held until the other N-1 wait on it.
func TestServerAliasConcurrentColdBodies(t *testing.T) {
	const n = 8
	_, specJSON, budget := serviceSpec(t)
	srv := NewServer(ServeOptions{MaxConcurrent: n})
	var explorations atomic.Int64
	srv.holdExplore = func(context.Context) {
		explorations.Add(1)
		deadline := time.Now().Add(10 * time.Second)
		for srv.memo.Stats(memo.Requests).InflightWaits < n-1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	body := []byte(specBody(specJSON, budget, ""))
	answers := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers[i] = serveBody(srv, "/v1/explore", body)
		}()
	}
	wg.Wait()
	for i, a := range answers {
		if a.Code != http.StatusOK || a.Body.String() != answers[0].Body.String() {
			t.Fatalf("post %d answered %d %.200q, post 0 %.200q", i, a.Code, a.Body, answers[0].Body)
		}
	}
	if got := explorations.Load(); got != 1 {
		t.Fatalf("%d explorations, want 1", got)
	}
	checkStats(t, srv, memo.Aliases, n-1, 1, 1)
	if st := srv.memo.Stats(memo.Requests); st.Misses != 1 || st.InflightWaits != n-1 {
		t.Fatalf("requests: %+v, want 1 miss and %d waits", st, n-1)
	}
}

// TestServerAliasBounded: the Aliases keyspace is capped by CacheBytes, or
// by defaultAliasBytes when CacheBytes leaves the cache unbounded, so a
// client that varies only whitespace cannot grow it without limit.
func TestServerAliasBounded(t *testing.T) {
	if got := NewServer(ServeOptions{}).memo.Stats(memo.Aliases).CapBytes; got != defaultAliasBytes {
		t.Fatalf("unbounded cache: aliases capped at %d, want %d", got, defaultAliasBytes)
	}
	const capBytes = 4096
	_, specJSON, budget := serviceSpec(t)
	srv := NewServer(ServeOptions{CacheBytes: capBytes})
	for i := 0; i < 40; i++ {
		body := specBody(specJSON, budget, "") + strings.Repeat(" ", i)
		if rec := serveBody(srv, "/v1/explore", []byte(body)); rec.Code != http.StatusOK {
			t.Fatalf("variant %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	st := srv.memo.Stats(memo.Aliases)
	if st.CapBytes != capBytes || st.BytesHeld > capBytes || st.Evictions == 0 {
		t.Fatalf("aliases after 40 whitespace variants: %+v, want evictions under a %d-byte cap", st, capBytes)
	}
}
