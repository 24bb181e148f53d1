package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

const testSpecJSON = `{
  "name": "hand",
  "groups": [{"name": "buf", "words": 1024, "bits": 12}],
  "loops": [
    {"name": "main", "iterations": 5000, "accesses": [
      {"group": "buf", "count": 2},
      {"group": "buf", "write": true, "count": 1, "deps": [0]}
    ]}
  ]
}`

// syncBuffer lets the test read the daemon's output while run is still
// writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL, a shutdown func (cancels the signal context, as SIGTERM would), and
// the channel delivering run's exit code.
func startDaemon(t *testing.T, args ...string) (url string, shutdown func(), exit chan int, out *syncBuffer) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out = &syncBuffer{}
	exit = make(chan int, 1)
	go func() {
		exit <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out, out)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1], cancel, exit, out
		}
		select {
		case code := <-exit:
			t.Fatalf("daemon exited early with %d:\n%s", code, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never started listening:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/explore", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestRunBadFlags: flag validation exits 2 without starting a server.
func TestRunBadFlags(t *testing.T) {
	cases := [][]string{
		{"-cache", "maybe"},
		{"-cache", "off", "-cache-dir", t.TempDir()}, // a disk tier without the cache
		{"-concurrency", "0"},
		{"-workers", "-1"},
		{"-timeout", "-1s"},
		{"-drain", "-1s"},
		{"-queue", "-1"},
		{"-slow", "-1s"},
		{"-self", "http://x:1"},                // no -peers
		{"-self", "http://x:1", "-peers", ","}, // no URL in -peers
		{"-peers", "http://y:1"},               // -peers without -self
		{"-cluster", "on"},                     // unknown flag: -self alone selects cluster mode
		{"-join", "http://x:1"},                // unknown flag: a joiner names a member in -peers
		{"-self", "http://x:1", "-gossip", "-1s"},
		{"-self", "http://x:1", "-peers", "http://y:1", "-forward-timeout", "-1s"},
		{"-hedge-ms", "50"}, // replaced by -forward-timeout
		{"-nonsense"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if code := run(context.Background(), args, &out, &out); code != 2 {
			t.Errorf("args %v: exit %d, want 2\n%s", args, code, out.String())
		}
	}
}

// TestRunStrayArguments: a positional argument is a usage error, caught
// before the daemon listens. Its address is taken, so a daemon that got as
// far as listening fails with exit 1 instead.
func TestRunStrayArguments(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	for _, args := range [][]string{
		{"-addr", taken.Addr().String(), "stray"},
		{"-addr", taken.Addr().String(), "stray", "-concurrency", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("args %v: exit %d, want 2\n%s", args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), `unexpected arguments ["stray"`) || !strings.Contains(stderr.String(), "Usage of dtsed") {
			t.Errorf("args %v: stderr does not name the stray argument and print the usage:\n%s", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("args %v: wrote stdout despite the usage error:\n%s", args, stdout.String())
		}
	}
}

// TestDaemonEndToEnd drives one daemon instance through the whole serving
// surface: health, malformed requests, a real exploration, per-request
// deadlines, metrics, overload, and a draining shutdown.
func TestDaemonEndToEnd(t *testing.T) {
	url, shutdown, exit, out := startDaemon(t, "-concurrency", "1", "-queue", "1", "-drain", "300ms")

	// Health.
	resp, err := http.Get(url + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}

	// Malformed spec → 400 with an error body.
	status, body := post(t, url, `{"spec": "not an object", "budget": 5}`)
	if status != http.StatusBadRequest {
		t.Fatalf("malformed spec: status %d: %s", status, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("malformed-spec error body unreadable: %s", body)
	}

	// Happy path: a spec exploration.
	status, body = post(t, url, fmt.Sprintf(`{"spec": %s, "budget": 20000}`, testSpecJSON))
	if status != http.StatusOK {
		t.Fatalf("explore: status %d: %s", status, body)
	}
	var env struct {
		Variant struct {
			Label   string `json:"label"`
			Optimal bool   `json:"optimal"`
			Cost    struct {
				TotalPowerMW float64 `json:"total_power_mw"`
			} `json:"cost"`
		} `json:"variant"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("explore response: %v\n%s", err, body)
	}
	if env.Variant.Label != "hand" || !env.Variant.Optimal || env.Variant.Cost.TotalPowerMW <= 0 {
		t.Fatalf("explore response wrong: %+v", env.Variant)
	}

	// Per-request deadline: a 1ms demo exploration still answers 200, but
	// best-effort; it must return promptly, not after a full exploration.
	begin := time.Now()
	status, body = post(t, url, `{"demo": {"size": 64}, "timeout_ms": 1}`)
	if status != http.StatusOK {
		t.Fatalf("deadline request: status %d: %s", status, body)
	}
	if el := time.Since(begin); el > 30*time.Second {
		t.Fatalf("1ms-deadline request took %v", el)
	}
	var denv struct {
		Results struct {
			Final struct {
				Optimal  bool `json:"optimal"`
				Degraded bool `json:"degraded"`
			} `json:"final"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &denv); err != nil {
		t.Fatalf("deadline response: %v\n%s", err, body)
	}
	if denv.Results.Final.Optimal && !denv.Results.Final.Degraded {
		t.Fatal("1ms deadline returned a proven-optimal, non-degraded result")
	}

	// Metrics reflect the traffic so far.
	resp, err = http.Get(url + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Server struct {
			Requests     int64 `json:"requests_total"`
			LatencyCount int64 `json:"latency_count"`
			LatencyP50US int64 `json:"latency_p50_us"`
			LatencyP99US int64 `json:"latency_p99_us"`
		} `json:"server"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Server.Requests < 3 || m.Server.LatencyCount < 3 || m.Server.LatencyP99US < m.Server.LatencyP50US {
		t.Fatalf("metrics wrong: %+v", m.Server)
	}

	// The default /metrics view is the Prometheus text exposition, covering
	// the request-latency and per-stage histograms.
	resp, err = http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	promText, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE dtse_request_duration_seconds histogram",
		"dtse_request_duration_seconds_count",
		"dtse_stage_duration_seconds_bucket",
		"dtse_http_requests_total",
		"dtse_memo_hits_total",
	} {
		if !strings.Contains(string(promText), want) {
			t.Fatalf("prometheus exposition missing %q:\n%s", want, promText)
		}
	}

	// The 1ms-deadline request degraded, so the flight recorder holds it,
	// span tree and all — a degraded request is reconstructable after the
	// fact.
	resp, err = http.Get(url + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	var flights struct {
		Capacity int   `json:"capacity"`
		Recorded int64 `json:"recorded_total"`
		Entries  []struct {
			TraceID string `json:"trace_id"`
			Reason  string `json:"reason"`
			Status  int    `json:"status"`
			Mode    string `json:"mode"`
			Search  struct {
				Stage string `json:"stage"`
			} `json:"search"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"entries"`
	}
	err = json.NewDecoder(resp.Body).Decode(&flights)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if flights.Capacity != 64 || flights.Recorded < 1 || len(flights.Entries) < 1 {
		t.Fatalf("flight recorder empty after the degraded request: %+v", flights)
	}
	fe := flights.Entries[0]
	if fe.Reason != "degraded" || fe.Status != http.StatusOK || fe.TraceID == "" || fe.Mode != "demo" {
		t.Fatalf("flight entry wrong: %+v", fe)
	}
	if len(fe.Spans) == 0 || fe.Search.Stage == "" {
		t.Fatalf("flight entry not reconstructable (spans=%d, stage=%q)", len(fe.Spans), fe.Search.Stage)
	}

	// The live-exploration registry answers (idle right now).
	resp, err = http.Get(url + "/debug/explorations")
	if err != nil {
		t.Fatal(err)
	}
	var livelist struct {
		Count int `json:"count"`
	}
	err = json.NewDecoder(resp.Body).Decode(&livelist)
	resp.Body.Close()
	if err != nil || livelist.Count != 0 {
		t.Fatalf("/debug/explorations: err=%v count=%d", err, livelist.Count)
	}

	// Overload: with -concurrency 1 -queue 1, a slow exploration plus a
	// queued one exhaust admission; the third gets 429 + Retry-After.
	type slowResult struct {
		status int
		body   []byte
	}
	slow := make(chan slowResult, 2)
	launch := func(seed int) {
		resp, err := http.Post(url+"/v1/explore", "application/json",
			strings.NewReader(fmt.Sprintf(`{"demo": {"size": 256, "seed": %d}}`, seed)))
		if err != nil {
			slow <- slowResult{0, []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		slow <- slowResult{resp.StatusCode, b}
	}
	go launch(11)
	waitGauge(t, url, "inflight", 1)
	go launch(12)
	waitGauge(t, url, "queued", 1)
	req, _ := http.NewRequest(http.MethodPost, url+"/v1/explore", strings.NewReader(`{"demo": {"size": 256, "seed": 13}}`))
	req.Header.Set("Content-Type", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	overflowed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload: status %d, want 429: %s", resp.StatusCode, overflowed)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Graceful shutdown while the two slow explorations are still going:
	// after the drain grace they are degraded, their responses complete,
	// and the daemon exits 0.
	shutdown()
	for i := 0; i < 2; i++ {
		select {
		case r := <-slow:
			// The running exploration completes 200 (degraded); one that
			// was still queued when the drain escalated may be refused.
			if r.status != http.StatusOK && r.status != http.StatusTooManyRequests {
				t.Fatalf("in-flight request during drain: status %d: %s", r.status, r.body)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("in-flight exploration never completed during drain")
		}
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("daemon exited %d:\n%s", code, out.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("daemon never exited:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "shut down cleanly") {
		t.Fatalf("no clean-shutdown message:\n%s", out.String())
	}
}

// waitGauge polls /metrics.json until the named server gauge reaches want.
func waitGauge(t *testing.T, url, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/metrics.json")
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			Server map[string]any `json:"server"`
		}
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := m.Server[name].(float64); ok && int64(v) >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("gauge %s never reached %d", name, want)
}
