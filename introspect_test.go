package dtse

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/memo"
)

var updateGolden = flag.Bool("update", false, "rewrite the exposition golden files")

// TestMetricsPromGolden pins the Prometheus exposition of a fresh server —
// every family present, every sample zero — against a golden file. A fresh
// server is fully deterministic (the opt-in memo/pool histograms register
// eagerly at construction), so the golden is byte-exact: any change to
// metric names, types, bucket bounds, or ordering shows up as a diff here.
func TestMetricsPromGolden(t *testing.T) {
	srv := NewServer(ServeOptions{Obs: NewObserver()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The dtse_go_* runtime samples are read live at scrape time (heap bytes,
	// GC state) and cannot be deterministic even on a fresh server; mask their
	// values so the golden still pins the family names, types, and ordering.
	got = goRuntimeSampleRE.ReplaceAll(got, []byte("$1 0"))

	golden := filepath.Join("testdata", "metrics_fresh.prom")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("exposition differs from golden %s (rerun with -update if intentional):\n%s",
			golden, diffLines(want, got))
	}
}

// goRuntimeSampleRE matches a dtse_go_* sample line's value (TYPE lines
// don't match: they don't end in a value after a name token).
var goRuntimeSampleRE = regexp.MustCompile(`(?m)^(dtse_go_[a-zA-Z0-9_]+) \S+$`)

// diffLines renders a small line diff, enough to see which family moved.
func diffLines(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %q\n  got  %q\n", i+1, wl, gl)
		}
	}
	if b.Len() == 0 {
		return "(no line diff; length mismatch?)"
	}
	return b.String()
}

// TestMetricsPromStableNames scrapes after real traffic and checks the
// metric-name contract: the families dashboards depend on exist, and every
// family matches the naming convention.
func TestMetricsPromStableNames(t *testing.T) {
	srv := NewServer(ServeOptions{Obs: NewObserver()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, body := postExplore(t, ts, `{"demo": {"size": 64}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("traffic request failed: %d %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)

	families := map[string]string{} // name -> type
	for _, line := range strings.Split(string(text), "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 4 {
			t.Fatalf("malformed TYPE line %q", line)
		}
		families[parts[2]] = parts[3]
	}

	required := map[string]string{
		"dtse_http_requests_total":            "counter",
		"dtse_http_responses_total":           "counter",
		"dtse_http_inflight":                  "gauge",
		"dtse_http_queued":                    "gauge",
		"dtse_http_draining":                  "gauge",
		"dtse_explorations_open":              "gauge",
		"dtse_flightrecorder_recorded_total":  "counter",
		"dtse_flightrecorder_entries":         "gauge",
		"dtse_request_duration_seconds":       "histogram",
		"dtse_memo_hits_total":                "counter",
		"dtse_memo_misses_total":              "counter",
		"dtse_memo_inflight_waits_total":      "counter",
		"dtse_memo_contended_total":           "counter",
		"dtse_memo_entries":                   "gauge",
		"dtse_memo_lookup_seconds":            "histogram",
		"dtse_pool_task_seconds":              "histogram",
		"dtse_stage_duration_seconds":         "histogram",
		"dtse_server_requests_total":          "counter",
		"dtse_sbd_trials_total":               "counter",
		"dtse_sbd_trials_conflict_free_total": "counter",
		"dtse_go_heap_alloc_bytes":            "gauge",
		"dtse_go_mallocs_total":               "counter",
		"dtse_go_gc_cycles_total":             "counter",
		"dtse_go_gc_last_pause_seconds":       "gauge",
	}
	for name, typ := range required {
		if got, ok := families[name]; !ok {
			t.Errorf("required family %s missing", name)
		} else if got != typ {
			t.Errorf("family %s has type %s, want %s", name, got, typ)
		}
	}
	nameRE := regexp.MustCompile(`^dtse_[a-zA-Z0-9_:]+$`)
	for name := range families {
		if !nameRE.MatchString(name) {
			t.Errorf("family %q violates the naming convention", name)
		}
	}
	// The demo's exploration must have populated the stage histograms.
	if !bytes.Contains(text, []byte(`dtse_stage_duration_seconds_count{stage="serve.explore"} 1`)) {
		t.Errorf("serve.explore stage histogram not recorded:\n%s", text)
	}
}

// promHistogram is one parsed histogram series of an exposition scrape.
type promHistogram struct {
	buckets []int64 // in exposition order, +Inf last
	count   int64
	sumSec  float64
}

func parseRequestDuration(t *testing.T, text string) promHistogram {
	t.Helper()
	var h promHistogram
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "dtse_request_duration_seconds_bucket"):
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			h.buckets = append(h.buckets, v)
		case strings.HasPrefix(line, "dtse_request_duration_seconds_sum"):
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("bad sum line %q: %v", line, err)
			}
			h.sumSec = v
		case strings.HasPrefix(line, "dtse_request_duration_seconds_count"):
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("bad count line %q: %v", line, err)
			}
			h.count = v
		}
	}
	if len(h.buckets) == 0 {
		t.Fatalf("no request_duration buckets in scrape:\n%s", text)
	}
	return h
}

// TestMetricsPromConcurrentScrapes runs an 8-client exploration burst with
// /metrics scraped throughout, asserting every scrape is internally
// consistent (cumulative buckets monotone, +Inf bucket equals the count)
// and that counts are monotone across scrapes. Run with -race.
func TestMetricsPromConcurrentScrapes(t *testing.T) {
	_, specJSON, budget := serviceSpec(t)
	const n = 8
	// Queue room for every client: the default queue (2 × GOMAXPROCS) is
	// smaller than the burst on a small host and would answer 429.
	srv := NewServer(ServeOptions{Obs: NewObserver(), MaxQueue: n})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	scrapeErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastCount int64
		for {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				scrapeErr <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			h := parseRequestDuration(t, string(body))
			prev := int64(0)
			for i, c := range h.buckets {
				if c < prev {
					scrapeErr <- fmt.Errorf("bucket %d count %d below predecessor %d", i, c, prev)
					return
				}
				prev = c
			}
			if inf := h.buckets[len(h.buckets)-1]; inf != h.count {
				scrapeErr <- fmt.Errorf("+Inf bucket %d != count %d", inf, h.count)
				return
			}
			if h.count < lastCount {
				scrapeErr <- fmt.Errorf("count regressed across scrapes: %d -> %d", lastCount, h.count)
				return
			}
			lastCount = h.count
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var clients sync.WaitGroup
	for i := 0; i < n; i++ {
		clients.Add(1)
		go func(i int) {
			defer clients.Done()
			// Distinct budgets defeat deduplication: all explorations run.
			resp, body := postExploreRaw(ts.URL, specBody(specJSON, budget+uint64(i), ""))
			if resp == nil || resp.StatusCode != http.StatusOK {
				t.Errorf("client %d failed: %s", i, body)
			}
		}(i)
	}
	clients.Wait()
	close(stop)
	wg.Wait()
	select {
	case err := <-scrapeErr:
		t.Fatal(err)
	default:
	}

	// After the burst, the lifetime histogram covers all n requests.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if h := parseRequestDuration(t, string(body)); h.count < n {
		t.Errorf("final request_duration count %d, want >= %d", h.count, n)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	event string
	data  string
}

func parseSSE(t *testing.T, body string) []sseEvent {
	t.Helper()
	var events []sseEvent
	for _, block := range strings.Split(body, "\n\n") {
		if strings.TrimSpace(block) == "" {
			continue
		}
		var e sseEvent
		for _, line := range strings.Split(block, "\n") {
			if v, ok := strings.CutPrefix(line, "event: "); ok {
				e.event = v
			}
			if v, ok := strings.CutPrefix(line, "data: "); ok {
				e.data = v
			}
		}
		if e.event == "" {
			t.Fatalf("SSE block without event line: %q", block)
		}
		events = append(events, e)
	}
	return events
}

// TestSSEExplore: a POST with Accept: text/event-stream streams progress
// events and ends with a result event whose data is byte-identical to the
// plain-POST response body. The GET form (?request=) serves EventSource
// clients the same way.
func TestSSEExplore(t *testing.T) {
	srv := NewServer(ServeOptions{Obs: NewObserver()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"demo": {"size": 64}}`
	_, plain := postExplore(t, ts, body)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/explore", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Fatal("SSE response missing X-Trace-Id")
	}
	stream, _ := io.ReadAll(resp.Body)
	events := parseSSE(t, string(stream))
	if len(events) < 2 {
		t.Fatalf("only %d SSE events, want at least progress + result:\n%s", len(events), stream)
	}
	if events[0].event != "progress" {
		t.Errorf("first event %q, want progress", events[0].event)
	}
	var prog struct {
		TraceID string `json:"trace_id"`
		Mode    string `json:"mode"`
	}
	if err := json.Unmarshal([]byte(events[0].data), &prog); err != nil {
		t.Fatalf("progress event not JSON: %v\n%s", err, events[0].data)
	}
	if prog.TraceID == "" || prog.Mode != "demo" {
		t.Errorf("progress event wrong: %+v", prog)
	}
	last := events[len(events)-1]
	if last.event != "result" {
		t.Fatalf("final event %q, want result", last.event)
	}
	if last.data != strings.TrimRight(string(plain), "\n") {
		t.Errorf("result data differs from plain POST body:\nsse:   %.120s\nplain: %.120s", last.data, plain)
	}

	// GET + ?request= serves EventSource clients; the result is the same.
	getURL := ts.URL + "/v1/explore?request=" + url.QueryEscape(body)
	req, _ = http.NewRequest(http.MethodGet, getURL, nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET SSE status %d", resp.StatusCode)
	}
	stream, _ = io.ReadAll(resp.Body)
	events = parseSSE(t, string(stream))
	last = events[len(events)-1]
	if last.event != "result" || last.data != strings.TrimRight(string(plain), "\n") {
		t.Errorf("GET SSE result differs from plain POST body")
	}

	// GET without the SSE accept header stays 405, and GET SSE without
	// ?request= is a 400 — both carry a trace id.
	resp, err = http.Get(ts.URL + "/v1/explore")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("X-Trace-Id") == "" {
		t.Errorf("plain GET: status %d, trace %q; want 405 with trace id",
			resp.StatusCode, resp.Header.Get("X-Trace-Id"))
	}
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/explore", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("X-Trace-Id") == "" {
		t.Errorf("GET SSE without ?request=: status %d, trace %q; want 400 with trace id",
			resp.StatusCode, resp.Header.Get("X-Trace-Id"))
	}
}

// TestSSECancelMidExploration: a client that disconnects mid-stream cancels
// its exploration; the server drains and the degraded result is not cached,
// so a later identical request recomputes. The first exploration is held
// until its context is done, so the disconnect always lands mid-exploration
// however fast the host runs the demo.
func TestSSECancelMidExploration(t *testing.T) {
	srv := NewServer(ServeOptions{Obs: NewObserver()})
	var held atomic.Bool
	srv.holdExplore = func(ctx context.Context) {
		if held.CompareAndSwap(false, true) {
			<-ctx.Done()
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"demo": {"size": 256}}`
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/explore", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the first progress event to know the exploration was admitted,
	// then hang up.
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	cancel()
	resp.Body.Close()

	// The canceled exploration degrades and drains.
	deadline := time.Now().Add(30 * time.Second)
	for srv.Inflight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("exploration never drained after client disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The degraded result must not have been cached: the rerun is a second
	// miss, and its response is complete (not degraded).
	resp2, respBody := postExplore(t, ts, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("rerun failed: %d %s", resp2.StatusCode, respBody)
	}
	var env struct {
		Results struct {
			Final struct {
				Degraded bool `json:"degraded"`
			} `json:"final"`
		} `json:"results"`
	}
	if err := json.Unmarshal(respBody, &env); err != nil {
		t.Fatal(err)
	}
	if env.Results.Final.Degraded {
		t.Error("rerun after cancellation served the degraded result")
	}
	if st := srv.memo.Stats(memo.Requests); st.Misses < 2 {
		t.Errorf("request keyspace misses = %d, want >= 2 (canceled result must not be cached)", st.Misses)
	}
}

// TestExplorationsRegistry: an in-flight exploration is visible at
// /debug/explorations with its trace id and progress, and disappears once
// it completes.
func TestExplorationsRegistry(t *testing.T) {
	srv := NewServer(ServeOptions{Obs: NewObserver()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		postExploreRaw(ts.URL, `{"demo": {"size": 256}}`)
	}()

	type listing struct {
		Count        int `json:"count"`
		Explorations []struct {
			TraceID   string  `json:"trace_id"`
			Mode      string  `json:"mode"`
			Label     string  `json:"label"`
			ElapsedMS float64 `json:"elapsed_ms"`
			Stage     string  `json:"stage"`
			Nodes     int64   `json:"nodes"`
		} `json:"explorations"`
	}
	fetch := func() listing {
		resp, err := http.Get(ts.URL + "/debug/explorations")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var l listing
		if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
			t.Fatal(err)
		}
		return l
	}

	deadline := time.Now().Add(30 * time.Second)
	var seen listing
	for {
		seen = fetch()
		if seen.Count == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("in-flight exploration never appeared in /debug/explorations")
		}
		time.Sleep(2 * time.Millisecond)
	}
	e := seen.Explorations[0]
	if e.TraceID == "" || e.Mode != "demo" || e.Label != "size=256" {
		t.Errorf("registry entry wrong: %+v", e)
	}
	if e.ElapsedMS < 0 {
		t.Errorf("negative elapsed: %v", e.ElapsedMS)
	}

	srv.Abort() // finish fast
	<-done
	if after := fetch(); after.Count != 0 {
		t.Errorf("registry still holds %d entries after completion", after.Count)
	}
}

// TestFlightRecorderDegraded: a request degraded by a dead context is fully
// reconstructable from /debug/flightrecorder — reason, status, search
// position, and the span tree.
func TestFlightRecorderDegraded(t *testing.T) {
	srv := NewServer(ServeOptions{Obs: NewObserver()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Abort first: every subsequent exploration runs under a dead context
	// and deterministically degrades to its anytime result.
	srv.Abort()
	resp, body := postExplore(t, ts, `{"demo": {"size": 64}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded request: status %d: %s", resp.StatusCode, body)
	}
	tid := resp.Header.Get("X-Trace-Id")

	fr, err := http.Get(ts.URL + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Body.Close()
	var dump struct {
		Capacity int            `json:"capacity"`
		Recorded int64          `json:"recorded_total"`
		Entries  []*FlightEntry `json:"entries"`
	}
	if err := json.NewDecoder(fr.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.Capacity != 64 || dump.Recorded != 1 || len(dump.Entries) != 1 {
		t.Fatalf("flight recorder dump wrong: capacity=%d recorded=%d entries=%d",
			dump.Capacity, dump.Recorded, len(dump.Entries))
	}
	e := dump.Entries[0]
	if e.TraceID != tid {
		t.Errorf("entry trace %q != response trace %q", e.TraceID, tid)
	}
	if e.Reason != "degraded" || !e.Degraded || e.Status != http.StatusOK {
		t.Errorf("entry reason/degraded/status = %q/%v/%d, want degraded/true/200", e.Reason, e.Degraded, e.Status)
	}
	if e.Mode != "demo" || e.Label != "size=64" {
		t.Errorf("entry mode/label = %q/%q", e.Mode, e.Label)
	}
	if len(e.Spans) == 0 {
		t.Fatal("entry has no span tree")
	}
	found := false
	for _, sp := range e.Spans {
		if sp.Name == "serve.explore" {
			found = true
		}
	}
	if !found {
		t.Errorf("span tree misses the serve.explore root; got %d spans", len(e.Spans))
	}
	if e.Search.Stage == "" {
		t.Errorf("search snapshot has no stage: %+v", e.Search)
	}
	if e.DurationMS < 0 {
		t.Errorf("negative duration %v", e.DurationMS)
	}

	// A second, healthy request must not be recorded (no reason applies).
	srv2 := NewServer(ServeOptions{})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if resp, body := postExplore(t, ts2, `{"demo": {"size": 64}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy request failed: %d %s", resp.StatusCode, body)
	}
	if n := srv2.flight.size(); n != 0 {
		t.Errorf("healthy request was flight-recorded (%d entries)", n)
	}
}

// TestFlightRecorderSlowAndDisabled: the slow criterion records healthy
// requests above the threshold; FlightRecorder < 0 disables the recorder
// and its endpoint answers 404.
func TestFlightRecorderSlowAndDisabled(t *testing.T) {
	srv := NewServer(ServeOptions{SlowRequest: time.Nanosecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if resp, body := postExplore(t, ts, `{"demo": {"size": 64}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("request failed: %d %s", resp.StatusCode, body)
	}
	total, entries := srv.flight.dump()
	if total != 1 || len(entries) != 1 || entries[0].Reason != "slow" {
		t.Fatalf("slow request not recorded: total=%d entries=%+v", total, entries)
	}

	off := NewServer(ServeOptions{FlightRecorder: -1})
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	resp, err := http.Get(tsOff.URL + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled recorder endpoint: status %d, want 404", resp.StatusCode)
	}
}

// TestLatencyRingSmallCounts pins the nearest-rank percentiles at the small
// sample counts where the old floor(p*(k-1)) indexing under-reported.
func TestLatencyRingSmallCounts(t *testing.T) {
	cases := []struct {
		samples  []int64
		p50, p99 int64
	}{
		{[]int64{10}, 10, 10},
		{[]int64{10, 20}, 10, 20},
		{[]int64{10, 20, 30}, 20, 30},
		{[]int64{10, 20, 30, 40}, 20, 40},
		{[]int64{10, 20, 30, 40, 50}, 30, 50},
	}
	for _, c := range cases {
		var l latencyRing
		for _, s := range c.samples {
			l.record(s)
		}
		n, p50, p99 := l.percentiles()
		if n != int64(len(c.samples)) || p50 != c.p50 || p99 != c.p99 {
			t.Errorf("n=%d samples: got (n=%d, p50=%d, p99=%d), want (p50=%d, p99=%d)",
				len(c.samples), n, p50, p99, c.p50, c.p99)
		}
	}
	var empty latencyRing
	if n, p50, p99 := empty.percentiles(); n != 0 || p50 != 0 || p99 != 0 {
		t.Errorf("empty ring: %d/%d/%d", n, p50, p99)
	}
}

// TestHealthzContentType: the plain-text endpoints declare their type.
func TestHealthzContentType(t *testing.T) {
	srv := NewServer(ServeOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("/healthz Content-Type = %q", ct)
	}

	// Content negotiation on /metrics: JSON when asked for.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/metrics with Accept: application/json returned %q", ct)
	}
	var m metricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Errorf("negotiated JSON metrics not decodable: %v", err)
	}
}
