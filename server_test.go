package dtse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/memo"
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
// parseExplore call on a spec_hot-shaped body: the measured 78.5 plus about
// 10 %. The parse that re-scanned and reflectively re-encoded the spec
// made 126.
const parseAllocsCeiling = 86

// TestParseExploreAllocs pins the parse layer's allocation count.
func TestParseExploreAllocs(t *testing.T) {
	bodies := specHotBodies(16)
	perBody := testing.AllocsPerRun(20, func() {
		for _, b := range bodies {
			if _, err := parseExplore(bytes.NewReader(b)); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(len(bodies))
	t.Logf("parseExplore: %.1f allocs per spec_hot-shaped body", perBody)
	if perBody > parseAllocsCeiling {
		t.Errorf("parseExplore makes %.1f allocs per body, ceiling %d", perBody, parseAllocsCeiling)
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
	observer := NewObserver(NewJSONLSink(&buf))
	srv := NewServer(ServeOptions{Obs: observer})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 8
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
