package dtse

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/memo"
	"repro/internal/obs"
)

// promPaths maps every fixed Prometheus sample the server renders to its
// /metrics.json path. The per-keyspace memo families (promMemoFields), the
// request-latency histogram and the observer's counters, gauges and
// histograms are mapped by rule in TestMetricsSurfacesAgree.
var promPaths = map[string]string{
	"dtse_http_requests_total":               "server.requests_total",
	`dtse_http_responses_total{class="2xx"}`: "server.responses_2xx",
	`dtse_http_responses_total{class="3xx"}`: "server.responses_3xx",
	`dtse_http_responses_total{class="4xx"}`: "server.responses_4xx",
	`dtse_http_responses_total{class="5xx"}`: "server.responses_5xx",
	"dtse_http_inflight":                     "server.inflight",
	"dtse_http_queued":                       "server.queued",
	"dtse_http_draining":                     "server.draining",
	"dtse_explorations_open":                 "server.open_explorations",
	"dtse_flightrecorder_recorded_total":     "server.flight_recorded_total",
	"dtse_flightrecorder_entries":            "server.flight_entries",
	"dtse_cluster_peers":                     "cluster.peers",
	"dtse_cluster_peers_alive":               "cluster.peers_alive",
	"dtse_cluster_members":                   "cluster.members",
	"dtse_diskcache_records":                 "disk.Records",
	"dtse_diskcache_replayed_total":          "disk.Replayed",
	"dtse_diskcache_truncated_bytes_total":   "disk.Truncated",
	"dtse_diskcache_hits_total":              "disk.Hits",
	"dtse_diskcache_misses_total":            "disk.Misses",
	"dtse_diskcache_writes_total":            "disk.Writes",
	"dtse_diskcache_dropped_total":           "disk.Dropped",
	"dtse_diskcache_read_errors_total":       "disk.ReadErrs",
	"dtse_pool_workers":                      "pool.workers",
	"dtse_pool_spawns":                       "pool.spawns",
	"dtse_pool_inline_runs":                  "pool.inline_runs",
}

// promMemoFields maps each per-keyspace memo family to its memo.Stats
// field under /metrics.json memo.<space>.
var promMemoFields = map[string]string{
	"dtse_memo_hits_total":           "Hits",
	"dtse_memo_misses_total":         "Misses",
	"dtse_memo_inflight_waits_total": "InflightWaits",
	"dtse_memo_entries":              "Entries",
	"dtse_memo_evictions_total":      "Evictions",
	"dtse_memo_bytes_held":           "BytesHeld",
	"dtse_memo_disk_hits_total":      "DiskHits",
	"dtse_memo_disk_writes_total":    "DiskWrites",
}

// promRuntimeFields maps each dtse_go_* family to its /metrics.json runtime
// key. Their values move between two reads, so only presence is checked.
var promRuntimeFields = map[string]string{
	"dtse_go_heap_alloc_bytes":       "heap_alloc_bytes",
	"dtse_go_heap_sys_bytes":         "heap_sys_bytes",
	"dtse_go_alloc_bytes_total":      "alloc_bytes",
	"dtse_go_mallocs_total":          "mallocs",
	"dtse_go_gc_cycles_total":        "gc_cycles",
	"dtse_go_gc_last_pause_seconds":  "gc_last_pause_ns",
	"dtse_go_gc_pause_total_seconds": "gc_pause_total_ns",
	"dtse_go_goroutines":             "goroutines",
}

// promScrape is one parsed exposition: every non-bucket sample keyed by
// name and labels as printed, and every histogram's buckets keyed by
// family and labels without le.
type promScrape struct {
	samples map[string]float64
	buckets map[string][]promBucket
}

type promBucket struct {
	leUS  float64 // math.Inf(1) for the +Inf bucket
	count float64
}

var (
	leLabelRE  = regexp.MustCompile(`,?le="([^"]*)"`)
	promCharRE = regexp.MustCompile(`[^a-zA-Z0-9_:]`)
)

func parseProm(t *testing.T, text string) promScrape {
	t.Helper()
	p := promScrape{samples: map[string]float64{}, buckets: map[string][]promBucket{}}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		key := line[:i]
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		if _, dup := p.samples[key]; dup {
			t.Errorf("sample %s rendered twice", key)
		}
		name, _, _ := strings.Cut(key, "{")
		if !strings.HasSuffix(name, "_bucket") {
			p.samples[key] = v
			continue
		}
		m := leLabelRE.FindStringSubmatch(key)
		if m == nil {
			t.Fatalf("bucket without le: %q", line)
		}
		le := math.Inf(1)
		if m[1] != "+Inf" {
			sec, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				t.Fatalf("bad le in %q: %v", line, err)
			}
			le = math.Round(sec * 1e6)
		}
		// le is the last label: drop it, and the braces if it was the only one.
		series := strings.TrimSuffix(name, "_bucket") + strings.Replace(key[len(name):], m[0], "", 1)
		series = strings.TrimSuffix(series, "{}")
		p.buckets[series] = append(p.buckets[series], promBucket{le, v})
	}
	return p
}

// promKey renders a dotted observer name, with optional Label braces, as
// the exposition prints it: dtse_<base><suffix>{k="v",...}.
func promKey(name, suffix string) string {
	base, labels, _ := strings.Cut(name, "{")
	key := "dtse_" + promCharRE.ReplaceAllString(base, "_") + suffix
	if labels == "" {
		return key
	}
	var pairs []string
	for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
		k, v, _ := strings.Cut(kv, "=")
		pairs = append(pairs, fmt.Sprintf("%s=%q", k, v))
	}
	return key + "{" + strings.Join(pairs, ",") + "}"
}

// jsonPath walks a decoded JSON object along a dotted path.
func jsonPath(v any, path string) (any, bool) {
	for _, k := range strings.Split(path, ".") {
		obj, ok := v.(map[string]any)
		if !ok {
			return nil, false
		}
		if v, ok = obj[k]; !ok {
			return nil, false
		}
	}
	return v, true
}

func jsonNumber(t *testing.T, v any, what string) float64 {
	t.Helper()
	switch x := v.(type) {
	case float64:
		return x
	case bool:
		if x {
			return 1
		}
		return 0
	}
	t.Fatalf("%s: %v is not a number", what, v)
	return 0
}

// checkHistogram compares one exposed histogram series with its JSON
// summary: _count and _sum go into want, the +Inf bucket must equal the
// count, and the nearest-rank p50/p90/p99 read off the exposed buckets,
// clamped to the JSON max, must equal the JSON quantiles.
func checkHistogram(t *testing.T, got promScrape, want map[string]float64, series string, hist any) {
	t.Helper()
	h, ok := hist.(map[string]any)
	if !ok {
		t.Errorf("%s: JSON histogram missing", series)
		return
	}
	num := func(k string) float64 { return jsonNumber(t, h[k], series+"."+k) }
	fam, labels, _ := strings.Cut(series, "{")
	if labels != "" {
		labels = "{" + labels
	}
	count := num("count")
	want[fam+"_count"+labels] = count
	want[fam+"_sum"+labels] = num("sum_us") / 1e6
	bs := got.buckets[series]
	if len(bs) == 0 || !math.IsInf(bs[len(bs)-1].leUS, 1) || bs[len(bs)-1].count != count {
		t.Errorf("%s: buckets %v do not end in +Inf = count %v", series, bs, count)
		return
	}
	for _, q := range []struct {
		key string
		q   float64
	}{{"p50_us", 0.50}, {"p90_us", 0.90}, {"p99_us", 0.99}} {
		var fromBuckets float64
		if count > 0 {
			rank := math.Max(1, float64(int64(q.q*count+0.9999999)))
			fromBuckets = num("max_us")
			for _, b := range bs[:len(bs)-1] {
				if b.count >= rank {
					fromBuckets = math.Min(b.leUS, num("max_us"))
					break
				}
			}
		}
		if jq := num(q.key); fromBuckets != jq {
			t.Errorf("%s: %s from the exposed buckets is %v, JSON says %v", series, q.key, fromBuckets, jq)
		}
	}
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricsSurfacesAgree drives a server with every metric source
// enabled — observer, disk tier, flight recorder, cluster mode — through
// demo, spec, batch and refused traffic, then requires every Prometheus
// sample outside dtse_go_* and dtse_stage_duration_* to equal its
// /metrics.json field, and every such field to be exposed. The dtse_go_*
// families move between two reads; they must be present in JSON runtime.
func TestMetricsSurfacesAgree(t *testing.T) {
	disk, err := memo.OpenDiskTier(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	srv := NewServer(ServeOptions{Obs: obs.New(), Disk: disk, SlowRequest: time.Nanosecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Abort()
	if err := srv.JoinCluster(ClusterOptions{Self: ts.URL, GossipInterval: time.Hour}); err != nil {
		t.Fatal(err)
	}

	_, specJSON, budget := serviceSpec(t)
	for _, body := range []string{
		`{"demo": {"size": 64}}`,
		specBody(specJSON, budget, ""),
		specBody(specJSON, budget, ""), // a dedup hit
		`{"budget": 1}`,                // 400
	} {
		postExplore(t, ts, body)
	}
	resp, err := http.Post(ts.URL+"/v1/explore/batch", "application/json", strings.NewReader(
		batchBody(specBody(specJSON, budget+1, ""), specBody(specJSON, budget+2, ""), `{"budget": 1}`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	getBody(t, ts.URL+"/v1/explore") // 405, refused before it counts as a request

	// The disk tier appends write-behind: wait until every queued record
	// has landed, so the two scrapes below read the same state.
	waitUntil(t, 10*time.Second, func() bool {
		var st metricsResponse
		if err := json.Unmarshal(getBody(t, ts.URL+"/metrics.json"), &st); err != nil || st.Disk == nil {
			t.Fatalf("/metrics.json: %v", err)
		}
		queued := int64(0)
		for _, ms := range st.Memo {
			queued += ms.DiskWrites
		}
		return queued > 0 && st.Disk.Writes == queued
	}, "disk tier never wrote every queued record")

	got := parseProm(t, string(getBody(t, ts.URL+"/metrics")))
	var snap map[string]any
	if err := json.Unmarshal(getBody(t, ts.URL+"/metrics.json"), &snap); err != nil {
		t.Fatal(err)
	}

	want := map[string]float64{}
	for key, path := range promPaths {
		v, ok := jsonPath(snap, path)
		if !ok {
			t.Errorf("%s: /metrics.json has no %s", key, path)
			continue
		}
		want[key] = jsonNumber(t, v, path)
	}
	memoJSON, _ := snap["memo"].(map[string]any)
	for space := range memoJSON {
		for fam, field := range promMemoFields {
			v, _ := jsonPath(memoJSON, space+"."+field)
			want[fmt.Sprintf("%s{space=%q}", fam, space)] = jsonNumber(t, v, "memo."+space+"."+field)
		}
	}
	obsJSON, _ := snap["obs"].(map[string]any)
	counters, _ := obsJSON["counters"].(map[string]any)
	for name, v := range counters {
		want[promKey(name, "_total")] = jsonNumber(t, v, "obs.counters."+name)
	}
	gauges, _ := obsJSON["gauges"].(map[string]any)
	for name, v := range gauges {
		want[promKey(name, "")] = jsonNumber(t, v, "obs.gauges."+name)
	}
	latency, _ := jsonPath(snap, "server.latency_hist")
	checkHistogram(t, got, want, "dtse_request_duration_seconds", latency)
	for short, full := range map[string]string{"latency_count": "count", "latency_p50_us": "p50_us", "latency_p99_us": "p99_us"} {
		v, _ := jsonPath(snap, "server."+short)
		h, _ := jsonPath(latency, full)
		if v != h {
			t.Errorf("/metrics.json server.%s = %v, latency_hist.%s = %v", short, v, full, h)
		}
	}
	hists, _ := obsJSON["histograms"].(map[string]any)
	for name, h := range hists {
		checkHistogram(t, got, want, promKey(name, "_seconds"), h)
	}

	for key, v := range got.samples {
		if strings.HasPrefix(key, "dtse_go_") || strings.HasPrefix(key, "dtse_stage_duration_seconds") {
			continue
		}
		if w, ok := want[key]; !ok {
			t.Errorf("exposed sample %s = %v has no /metrics.json field", key, v)
		} else if w != v {
			t.Errorf("%s: exposed %v, /metrics.json %v", key, v, w)
		}
	}
	var missing []string
	for key := range want {
		if _, ok := got.samples[key]; !ok {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("/metrics.json field for %s is not exposed", key)
	}
	for key := range got.samples {
		if !strings.HasPrefix(key, "dtse_go_") {
			continue
		}
		field, ok := promRuntimeFields[key]
		if !ok {
			t.Errorf("runtime family %s has no /metrics.json runtime key", key)
		} else if _, ok := jsonPath(snap, "runtime."+field); !ok {
			t.Errorf("%s: /metrics.json has no runtime.%s", key, field)
		}
	}

	// The traffic must have reached the sources the comparison covers.
	for key, min := range map[string]float64{
		"dtse_http_requests_total":                        5,
		`dtse_http_responses_total{class="4xx"}`:          2,
		"dtse_flightrecorder_recorded_total":              1,
		"dtse_cluster_members":                            1,
		"dtse_diskcache_writes_total":                     1,
		`dtse_memo_hits_total{space="requests"}`:          1,
		"dtse_server_batch_items_total":                   3,
		`dtse_memo_lookup_seconds_count{space="aliases"}`: 1,
	} {
		if got.samples[key] < min {
			t.Errorf("%s = %v, want at least %v", key, got.samples[key], min)
		}
	}
}

// TestSessionCacheHoldsRequestTiers: the session cache holds only the
// request tiers, which later requests re-read. After distinct spec
// requests and a demo request, /metrics.json lists exactly the aliases and
// requests keyspaces and /metrics renders no other, while the demo's run
// still published its own run cache's schedule and assignment hits into
// the observer.
func TestSessionCacheHoldsRequestTiers(t *testing.T) {
	srv := NewServer(ServeOptions{Obs: obs.New()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, specJSON, budget := serviceSpec(t)
	spaces := func() []string {
		t.Helper()
		var snap metricsResponse
		if err := json.Unmarshal(getBody(t, ts.URL+"/metrics.json"), &snap); err != nil {
			t.Fatal(err)
		}
		var names []string
		for name := range snap.Memo {
			names = append(names, name)
		}
		sort.Strings(names)
		return names
	}
	for i := uint64(0); i < 3; i++ {
		if resp, body := postExplore(t, ts, specBody(specJSON, budget+i, "")); resp.StatusCode != http.StatusOK {
			t.Fatalf("spec request: %d %s", resp.StatusCode, body)
		}
	}
	if got := spaces(); fmt.Sprint(got) != "[aliases requests]" {
		t.Fatalf("after spec requests the session cache lists %v, want [aliases requests]", got)
	}
	if resp, body := postExplore(t, ts, `{"demo": {"size": 64}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("demo request: %d %s", resp.StatusCode, body)
	}
	if got := spaces(); fmt.Sprint(got) != "[aliases requests]" {
		t.Fatalf("after a demo request the session cache lists %v, want [aliases requests]", got)
	}
	for _, sp := range []string{"schedule", "assignments"} {
		if got := srv.obs.Counters()[obs.Label("memo.hits", "space", sp)]; got == 0 {
			t.Errorf("the demo's run published no %s hits", sp)
		}
	}
	prom := string(getBody(t, ts.URL+"/metrics"))
	for _, sp := range []string{"schedule", "assignments"} {
		if strings.Contains(prom, `space="`+sp+`"`) {
			t.Errorf("/metrics renders the %s keyspace, which no session holds", sp)
		}
	}
}

// TestMetricsPoolAndCacheReadLive: after a demo request (whose RunAll
// publishes memo and pool gauges into the observer) and then spec
// requests, the pool gauges read the live pool, and the JSON observer
// snapshot carries no memo.* or pool.* counter or gauge — the cache and
// the pool own those and are served from their live reads.
func TestMetricsPoolAndCacheReadLive(t *testing.T) {
	srv := NewServer(ServeOptions{Obs: obs.New()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, specJSON, budget := serviceSpec(t)
	if resp, body := postExplore(t, ts, `{"demo": {"size": 64}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("demo request: %d %s", resp.StatusCode, body)
	}
	for i := uint64(0); i < 3; i++ {
		if resp, body := postExplore(t, ts, specBody(specJSON, budget+i, "")); resp.StatusCode != http.StatusOK {
			t.Fatalf("spec request: %d %s", resp.StatusCode, body)
		}
	}

	got := parseProm(t, string(getBody(t, ts.URL+"/metrics")))
	spawns, inline := srv.workers.Stats()
	if got.samples["dtse_pool_spawns"] != float64(spawns) || got.samples["dtse_pool_inline_runs"] != float64(inline) {
		t.Errorf("exposed pool spawns/inline_runs %v/%v, live pool %d/%d",
			got.samples["dtse_pool_spawns"], got.samples["dtse_pool_inline_runs"], spawns, inline)
	}

	var snap metricsResponse
	if err := json.Unmarshal(getBody(t, ts.URL+"/metrics.json"), &snap); err != nil {
		t.Fatal(err)
	}
	for _, named := range []map[string]int64{snap.Obs.Counters, snap.Obs.Gauges} {
		for name := range named {
			if strings.HasPrefix(name, "memo.") || strings.HasPrefix(name, "pool.") {
				t.Errorf("/metrics.json obs holds %s, a copy of state the cache or pool owns", name)
			}
		}
	}
}
