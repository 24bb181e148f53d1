package dtse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/memo"
	"repro/internal/obs"
)

// --- in-process multi-node harness ---

// testCluster is N full dtse servers joined into one consistent-hash ring,
// each behind its own httptest listener — the in-process stand-in for a
// multi-machine deployment.
type testCluster struct {
	servers []*Server
	https   []*httptest.Server
	urls    []string
}

// newTestCluster builds and joins n nodes. optsFor returns node i's
// ServeOptions (so tests can give each node its own observer); copts is
// shared, with Self/Peers filled in per node.
func newTestCluster(t *testing.T, n int, optsFor func(i int) ServeOptions, copts ClusterOptions) *testCluster {
	t.Helper()
	return newWrappedTestCluster(t, n, optsFor, copts, nil)
}

// newWrappedTestCluster is newTestCluster with node i's handler passed
// through wrap(i, handler) when wrap is non-nil, so a test can slow down or
// break one member at the HTTP layer.
func newWrappedTestCluster(t *testing.T, n int, optsFor func(i int) ServeOptions, copts ClusterOptions, wrap func(i int, h http.Handler) http.Handler) *testCluster {
	t.Helper()
	tc := &testCluster{
		servers: make([]*Server, n),
		https:   make([]*httptest.Server, n),
		urls:    make([]string, n),
	}
	for i := 0; i < n; i++ {
		tc.servers[i] = NewServer(optsFor(i))
		h := tc.servers[i].Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		tc.https[i] = httptest.NewServer(h)
		tc.urls[i] = tc.https[i].URL
	}
	for i := 0; i < n; i++ {
		co := copts
		co.Self = tc.urls[i]
		co.Peers = nil
		for j := 0; j < n; j++ {
			if j != i {
				co.Peers = append(co.Peers, tc.urls[j])
			}
		}
		if err := tc.servers[i].JoinCluster(co); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for i := range tc.servers {
			tc.https[i].Close()
			tc.servers[i].Abort()
		}
	})
	return tc
}

func plainOpts(int) ServeOptions { return ServeOptions{} }

// randClusterSpec builds a deterministic random spec request body with
// five to seven on-chip groups and a budget drawn per seed.
func randClusterSpec(t *testing.T, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := randSingleLoopSpec(rng, fmt.Sprintf("cl%d", seed), 5, 7)
	return specRequest(t, s, 200_000+rng.Intn(100_000))
}

// largeClusterSpec builds a seeded single-loop spec with ten to thirteen
// on-chip groups and a 20 M budget, the shape of the ring_batch benchmark's
// largest specs; every search over them completes.
func largeClusterSpec(t *testing.T, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return specRequest(t, randSingleLoopSpec(rng, fmt.Sprintf("big%d", seed), 10, 13), 20_000_000)
}

// randSingleLoopSpec draws lo to hi groups of random on-chip sizes and
// widths, all read (and half of them written) in one loop.
func randSingleLoopSpec(rng *rand.Rand, name string, lo, hi int) *Spec {
	b := NewSpec(name)
	names := make([]string, lo+rng.Intn(hi-lo+1))
	for i := range names {
		names[i] = fmt.Sprintf("g%d", i)
		b.Group(names[i], int64(128<<uint(rng.Intn(4))), 4+2*rng.Intn(6))
	}
	b.Loop("body", 2048+uint64(rng.Intn(2048)))
	for _, g := range names {
		b.Read(g, float64(1+rng.Intn(2)))
		if rng.Intn(2) == 0 {
			b.Write(g, 1)
		}
	}
	return b.MustBuild()
}

func specRequest(t *testing.T, s *Spec, budget int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSpecJSON(s, &buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"spec": %s, "budget": %d}`, buf.Bytes(), budget)
}

func postURL(t *testing.T, url, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// --- determinism at any node count ---

// TestClusterDeterminismAnyNodeCount is the acceptance pin: for a demo
// run, small random specs and 10–13-group specs shaped like the ring_batch
// benchmark's, every front node of a 3-node cluster with default options
// returns byte-identical response bodies to a plain single node.
func TestClusterDeterminismAnyNodeCount(t *testing.T) {
	solo := NewServer(ServeOptions{})
	soloTS := httptest.NewServer(solo.Handler())
	defer soloTS.Close()
	defer solo.Abort()

	tc := newTestCluster(t, 3, plainOpts, ClusterOptions{})

	bodies := []string{`{"demo": {"size": 16, "seed": 9}}`}
	for seed := int64(0); seed < 5; seed++ {
		bodies = append(bodies, randClusterSpec(t, seed))
	}
	firstLarge := len(bodies)
	for seed := int64(0); seed < 4; seed++ {
		bodies = append(bodies, largeClusterSpec(t, seed))
	}
	for bi, body := range bodies {
		resp, ref := postURL(t, soloTS.URL, "/v1/explore", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("body %d: solo status %d: %s", bi, resp.StatusCode, ref)
		}
		if bi >= firstLarge && !bytes.Contains(ref, []byte(`"optimal":true`)) {
			t.Fatalf("body %d: large spec search did not complete: %s", bi, ref)
		}
		for ni, url := range tc.urls {
			resp, got := postURL(t, url, "/v1/explore", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("body %d via node %d: status %d: %s", bi, ni, resp.StatusCode, got)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("body %d via node %d: response diverged from single node\n got: %s\nwant: %s", bi, ni, got, ref)
			}
		}
	}
}

// TestClusterBatchRouting: a batch posted to one front node fans out to
// the item owners and still returns per-item bodies byte-identical to a
// single node, with every item trace id rooted in the batch trace id.
func TestClusterBatchRouting(t *testing.T) {
	solo := NewServer(ServeOptions{})
	soloTS := httptest.NewServer(solo.Handler())
	defer soloTS.Close()
	defer solo.Abort()

	tc := newTestCluster(t, 3, plainOpts, ClusterOptions{})

	var items []string
	for seed := int64(10); seed < 18; seed++ {
		items = append(items, randClusterSpec(t, seed))
	}
	batch := `{"items": [` + strings.Join(items, ", ") + `]}`

	resp, body := postURL(t, tc.urls[0], "/v1/explore/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	tid := resp.Header.Get("X-Trace-Id")
	var env struct {
		Items []struct {
			Status  int             `json:"status"`
			TraceID string          `json:"trace_id"`
			Body    json.RawMessage `json:"body"`
		} `json:"items"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(env.Items) != len(items) {
		t.Fatalf("%d results for %d items", len(env.Items), len(items))
	}
	routedRemote := false
	for i, it := range env.Items {
		if it.Status != http.StatusOK {
			t.Fatalf("item %d: status %d: %s", i, it.Status, it.Body)
		}
		if !strings.HasPrefix(it.TraceID, tid+".") {
			t.Fatalf("item %d trace id %q not rooted in batch trace id %q", i, it.TraceID, tid)
		}
		if strings.HasPrefix(it.TraceID, tid+".p") {
			routedRemote = true
		}
		_, ref := postURL(t, soloTS.URL, "/v1/explore", items[i])
		if !bytes.Equal(append(bytes.TrimRight(it.Body, "\n"), '\n'), ref) {
			t.Fatalf("item %d body diverged from single node\n got: %s\nwant: %s", i, it.Body, ref)
		}
	}
	if !routedRemote {
		t.Fatal("no batch item was routed to a peer (8 random specs over 3 nodes should shard)")
	}
}

// --- failure handling ---

// TestClusterPeerKillZeroFailures: killing a node mid-load must cost
// latency only — every request posted to a surviving front completes 200
// with the single-node bytes.
func TestClusterPeerKillZeroFailures(t *testing.T) {
	solo := NewServer(ServeOptions{})
	soloTS := httptest.NewServer(solo.Handler())
	defer soloTS.Close()
	defer solo.Abort()

	tc := newTestCluster(t, 3, plainOpts, ClusterOptions{
		HedgeDelay: 15 * time.Millisecond,
	})

	var bodies, refs []string
	for seed := int64(20); seed < 32; seed++ {
		body := randClusterSpec(t, seed)
		_, ref := postURL(t, soloTS.URL, "/v1/explore", body)
		bodies, refs = append(bodies, body), append(refs, string(ref))
	}
	for i, body := range bodies {
		if i == len(bodies)/2 {
			// Kill node 2 abruptly: open connections die, later forwards to it
			// fail at the transport and fail over down the ring walk.
			tc.https[2].CloseClientConnections()
			tc.https[2].Close()
			tc.servers[2].Abort()
		}
		resp, got := postURL(t, tc.urls[0], "/v1/explore", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d after kill: status %d: %s", i, resp.StatusCode, got)
		}
		if string(got) != refs[i] {
			t.Fatalf("request %d: response diverged after peer kill\n got: %s\nwant: %s", i, got, refs[i])
		}
	}
}

// TestClusterHungPeerCompletes: a member that accepts connections but never
// answers (the gray failure a transport error never reveals) holds each
// forward for the forward deadline only. Every request it owns completes
// from a local fallback with the single-node bytes, and after three
// timed-out forwards the member is ejected, so later requests run locally
// without waiting on it.
func TestClusterHungPeerCompletes(t *testing.T) {
	hang := make(chan struct{})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-hang:
		case <-r.Context().Done():
		}
	}))
	defer stub.Close()
	defer close(hang) // unblock the stub handler before Close waits on it

	solo := NewServer(ServeOptions{})
	soloTS := httptest.NewServer(solo.Handler())
	defer soloTS.Close()
	defer solo.Abort()

	const ejectAfter = 3
	node := NewServer(ServeOptions{Obs: obs.New()})
	nodeTS := httptest.NewServer(node.Handler())
	defer nodeTS.Close()
	defer node.Abort()
	if err := node.JoinCluster(ClusterOptions{
		Self:           nodeTS.URL,
		Peers:          []string{stub.URL},
		HedgeDelay:     20 * time.Millisecond,
		GossipInterval: time.Hour, // only forwards may judge the stub
	}); err != nil {
		t.Fatal(err)
	}

	// Specs the stub owns, as seen from the live node.
	var bodies []string
	for seed := int64(100); len(bodies) < 8; seed++ {
		if seed > 700 {
			t.Fatalf("only %d stub-owned specs found", len(bodies))
		}
		b := randClusterSpec(t, seed)
		p, _, err := parseExplore([]byte(b), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !node.cluster.router.Owns(routeKey(p)) {
			bodies = append(bodies, b)
		}
	}
	for i, body := range bodies {
		_, ref := postURL(t, soloTS.URL, "/v1/explore", body)
		resp, got := postURL(t, nodeTS.URL, "/v1/explore", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, got)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("request %d diverged from single node\n got: %s\nwant: %s", i, got, ref)
		}
	}
	c := node.obs.Counters()
	timeouts, fallback := c["cluster.forward_timeouts"], c["cluster.fallback_local"]
	if timeouts == 0 || timeouts > ejectAfter {
		t.Fatalf("%d forward timeouts; want 1..%d, after which ejection stops the waits (counters %v)", timeouts, ejectAfter, c)
	}
	if fallback != timeouts || c["cluster.routed"] != 0 || fallback+c["cluster.local"] != int64(len(bodies)) {
		t.Fatalf("counters %v; want every timed-out forward to fall back locally and the rest to run locally", c)
	}
	resp, err := http.Get(nodeTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	prom, _ := io.ReadAll(resp.Body)
	if want := fmt.Sprintf("dtse_cluster_forward_timeouts_total %d", timeouts); !strings.Contains(string(prom), want) {
		t.Fatalf("/metrics lacks %q:\n%s", want, prom)
	}
}

// TestClusterEjectedPeerRejoinsByGossip: gossip is the only way back for
// an ejected peer. Node 1 fails every request, gossip included, until it is
// released. Once failed gossip rounds eject it, no explore or batch request
// reaches it for ten more rounds, its keys run locally on the front, and
// the outage counts as one ejection. After the release a gossip round
// readmits it, and the next request for its key is routed to it again.
func TestClusterEjectedPeerRejoinsByGossip(t *testing.T) {
	var failing atomic.Bool
	var served atomic.Int64 // explore and batch requests node 1 answered while failing
	failing.Store(true)
	tc := newWrappedTestCluster(t, 2, func(int) ServeOptions { return ServeOptions{Obs: obs.New()} },
		ClusterOptions{GossipInterval: 50 * time.Millisecond},
		func(i int, h http.Handler) http.Handler {
			if i != 1 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if failing.Load() {
					if strings.HasPrefix(r.URL.Path, "/v1/explore") {
						served.Add(1)
					}
					http.Error(w, "failing", http.StatusServiceUnavailable)
					return
				}
				h.ServeHTTP(w, r)
			})
		})
	front := tc.servers[0]
	router := front.cluster.router
	counters := front.obs.Counters
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (counters %v)", what, counters())
			}
		}
	}

	// Specs whose ring owner is node 1.
	var bodies []string
	for seed := int64(500); len(bodies) < 24; seed++ {
		if seed > 2000 {
			t.Fatalf("only %d specs owned by node 1 found", len(bodies))
		}
		b := randClusterSpec(t, seed)
		p, _, err := parseExplore([]byte(b), nil)
		if err != nil {
			t.Fatal(err)
		}
		if router.Ring().Owner(routeKey(p)) == tc.urls[1] {
			bodies = append(bodies, b)
		}
	}
	p, _, err := parseExplore([]byte(bodies[0]), nil)
	if err != nil {
		t.Fatal(err)
	}
	key := routeKey(p)

	waitFor("node 1's ejection", func() bool { return counters()["cluster.ejected"] == 1 })
	rounds := counters()["cluster.gossip_failed"]
	posted := int64(0)
	for next := 1; counters()["cluster.gossip_failed"] < rounds+10; next += 2 {
		if next+1 >= len(bodies) {
			t.Fatalf("ran out of node-1 specs after %d gossip rounds", counters()["cluster.gossip_failed"]-rounds)
		}
		if resp, got := postURL(t, tc.urls[0], "/v1/explore", bodies[next]); resp.StatusCode != http.StatusOK {
			t.Fatalf("explore during the outage: status %d: %s", resp.StatusCode, got)
		}
		if resp, got := postURL(t, tc.urls[0], "/v1/explore/batch", batchBody(bodies[next+1])); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch during the outage: status %d: %s", resp.StatusCode, got)
		}
		posted += 2
		if c := counters(); c["cluster.ejected"] != 1 {
			t.Fatalf("cluster.ejected %d during one continuous outage, want 1", c["cluster.ejected"])
		}
		seen := counters()["cluster.gossip_failed"]
		waitFor("a failed gossip round", func() bool { return counters()["cluster.gossip_failed"] > seen })
	}
	if n := served.Load(); n != 0 {
		t.Fatalf("%d explore or batch requests reached the ejected node", n)
	}
	if c := counters(); c["cluster.local"] != posted || c["cluster.routed"] != 0 || c["cluster.fallback_local"] != 0 {
		t.Fatalf("counters %v; want all %d outage requests run locally without a forward attempt", c, posted)
	}

	failing.Store(false)
	waitFor("a gossip round to readmit node 1", func() bool { return !router.Owns(key) })
	if resp, got := postURL(t, tc.urls[0], "/v1/explore", bodies[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("explore after readmission: status %d: %s", resp.StatusCode, got)
	}
	if c := counters(); c["cluster.routed"] != 1 || c["cluster.ejected"] != 1 {
		t.Fatalf("counters %v; want the request after readmission routed to node 1 and one ejection in all", c)
	}
}

// TestClusterGrayPeer: with default options, a member that answers every
// request 20 ms late is waited for, not raced. Cold demo and ring_batch-
// shaped requests posted to the two healthy fronts each run exactly one
// exploration in the whole ring, and every body equals a single node's.
func TestClusterGrayPeer(t *testing.T) {
	const grayDelay = 20 * time.Millisecond
	tc := newWrappedTestCluster(t, 3, plainOpts, ClusterOptions{}, func(i int, h http.Handler) http.Handler {
		if i != 2 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(grayDelay)
			h.ServeHTTP(w, r)
		})
	})
	solo := NewServer(ServeOptions{})
	soloTS := httptest.NewServer(solo.Handler())
	defer soloTS.Close()
	defer solo.Abort()

	// A cold demo at 128 takes 140-320 ms, far inside the 2 s forward
	// deadline. Under -race it takes about 4 s (and smaller demos longer),
	// past the deadline, so the race build posts large specs only.
	demos := 8
	if raceEnabled {
		demos = 0
	}
	var bodies []string
	for seed := 1; seed <= demos; seed++ {
		bodies = append(bodies, fmt.Sprintf(`{"demo": {"size": 128, "seed": %d}}`, seed))
	}
	for seed := int64(300); len(bodies) < 32; seed++ {
		bodies = append(bodies, largeClusterSpec(t, seed))
	}
	refs := make([][]byte, len(bodies))
	for i, body := range bodies {
		_, refs[i] = postURL(t, soloTS.URL, "/v1/explore", body)
	}
	took := make([]time.Duration, len(bodies))
	for i, body := range bodies {
		start := time.Now()
		resp, got := postURL(t, tc.urls[i%2], "/v1/explore", body)
		took[i] = time.Since(start)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("body %d: status %d: %s", i, resp.StatusCode, got)
		}
		if !bytes.Equal(got, refs[i]) {
			t.Fatalf("body %d diverged from single node\n got: %s\nwant: %s", i, got, refs[i])
		}
	}
	var explored int64
	for _, srv := range tc.servers {
		explored += srv.memo.Stats(memo.Requests).Misses
	}
	for _, class := range []struct {
		name  string
		times []time.Duration
	}{{"demo 128", took[:demos]}, {"large spec", took[demos:]}} {
		if len(class.times) == 0 {
			continue
		}
		ts := slices.Clone(class.times)
		slices.Sort(ts)
		t.Logf("%s: p50 %v, max %v", class.name, ts[len(ts)/2].Round(time.Millisecond), ts[len(ts)-1].Round(time.Millisecond))
	}
	t.Logf("%d explorations for %d distinct bodies", explored, len(bodies))
	if explored != int64(len(bodies)) {
		t.Fatalf("%d explorations for %d distinct bodies: %d duplicated", explored, len(bodies), explored-int64(len(bodies)))
	}
}

// --- trace propagation ---

// spanSink records span records for assertions.
type spanSink struct {
	mu   sync.Mutex
	recs []obs.SpanRecord
}

func (ss *spanSink) Span(rec *obs.SpanRecord) {
	ss.mu.Lock()
	ss.recs = append(ss.recs, *rec)
	ss.mu.Unlock()
}
func (ss *spanSink) Flush(map[string]int64) error { return nil }

func (ss *spanSink) find(name string) []obs.SpanRecord {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var out []obs.SpanRecord
	for _, r := range ss.recs {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// TestClusterTracePropagation: a forwarded request is one trace end to end
// — the peer's serve.explore span carries the front node's trace id and a
// peer= tag, and the front's serve.forward span names the serving peer.
func TestClusterTracePropagation(t *testing.T) {
	sinks := make([]*spanSink, 2)
	tc := newTestCluster(t, 2, func(i int) ServeOptions {
		sinks[i] = &spanSink{}
		return ServeOptions{Obs: obs.New(sinks[i])}
	}, ClusterOptions{})

	// Find a spec that node 0 does not own, so posting it to node 0 forwards.
	var body string
	for seed := int64(500); ; seed++ {
		if seed > 800 {
			t.Fatal("no peer-owned spec found")
		}
		b := randClusterSpec(t, seed)
		p, _, err := parseExplore([]byte(b), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !tc.servers[0].cluster.router.Owns(routeKey(p)) {
			body = b
			break
		}
	}
	resp, got := postURL(t, tc.urls[0], "/v1/explore", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	tid := resp.Header.Get("X-Trace-Id")
	if tid == "" {
		t.Fatal("missing X-Trace-Id")
	}

	fwd := sinks[0].find("serve.forward")
	if len(fwd) != 1 {
		t.Fatalf("front recorded %d serve.forward spans, want 1", len(fwd))
	}
	if fwd[0].Fields["trace_id"] != tid || fwd[0].Fields["peer"] != tc.urls[1] {
		t.Fatalf("forward span fields %v; want trace_id=%s peer=%s", fwd[0].Fields, tid, tc.urls[1])
	}
	var served []obs.SpanRecord
	for _, r := range sinks[1].find("serve.explore") {
		if r.Fields["trace_id"] == tid {
			served = append(served, r)
		}
	}
	if len(served) == 0 {
		t.Fatalf("peer recorded no serve.explore span with the forwarded trace id %s", tid)
	}
	for _, r := range served {
		if r.Fields["peer"] != tc.urls[1] {
			t.Fatalf("peer span not tagged with its member id: %v", r.Fields)
		}
	}
}

// --- internal endpoints ---

// TestClusterInternalEndpoints404Solo: no node serves an incumbent,
// subtree or join endpoint; each path answers 404 on a solo server and on
// a clustered node alike.
func TestClusterInternalEndpoints404Solo(t *testing.T) {
	solo := NewServer(ServeOptions{})
	ts := httptest.NewServer(solo.Handler())
	defer ts.Close()
	defer solo.Abort()
	tc := newTestCluster(t, 2, plainOpts, ClusterOptions{})
	for _, url := range []string{ts.URL, tc.urls[0]} {
		for _, path := range []string{"/v1/internal/incumbent", "/v1/internal/subtree", "/v1/internal/join"} {
			req, err := http.NewRequest(http.MethodPost, url+path, strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(clusterInternalHeader, "1")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("%s%s: status %d, want 404", url, path, resp.StatusCode)
			}
		}
	}
}

// TestClusterGossipBodyValidation: the gossip endpoint takes exactly one
// JSON object. Trailing data is a 400 and merges nothing, even when the
// object before it is a well-formed digest naming a new member; the same
// digest alone is a 200 and adds the member.
func TestClusterGossipBodyValidation(t *testing.T) {
	srv := NewServer(ServeOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Abort()
	if err := srv.JoinCluster(ClusterOptions{Self: ts.URL, GossipInterval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	members := func() float64 {
		t.Helper()
		v, ok := parseProm(t, string(getBody(t, ts.URL+"/metrics"))).samples["dtse_cluster_members"]
		if !ok {
			t.Fatal("no dtse_cluster_members sample")
		}
		return v
	}
	gossip := func(body string, want int) {
		t.Helper()
		resp, got := postURL(t, ts.URL, "/v1/internal/gossip", body)
		if resp.StatusCode != want {
			t.Fatalf("gossip %q: status %d, want %d: %s", body, resp.StatusCode, want, got)
		}
		if want == http.StatusBadRequest && !bytes.Contains(got, []byte("invalid digest body: trailing data after the JSON object")) {
			t.Fatalf("gossip %q: error body %s", body, got)
		}
	}

	gossip(`{"from":"","digest":[]} trailing garbage`, http.StatusBadRequest)
	gossip(`{"from":"","digest":[]}}`, http.StatusBadRequest)

	digest := `{"from":"http://new.test","digest":[{"id":"http://new.test","inc":"1","state":0}]}`
	gossip(digest+" trailing", http.StatusBadRequest)
	if n := members(); n != 1 {
		t.Fatalf("dtse_cluster_members = %v after a rejected digest, want 1", n)
	}
	gossip(digest, http.StatusOK)
	if n := members(); n != 2 {
		t.Fatalf("dtse_cluster_members = %v after the digest alone, want 2", n)
	}
}

// --- cluster metrics exposition ---

func TestClusterMetricsFamilies(t *testing.T) {
	o := obs.New()
	tc := newTestCluster(t, 2, func(i int) ServeOptions {
		if i == 0 {
			return ServeOptions{Obs: o}
		}
		return ServeOptions{Obs: obs.New()}
	}, ClusterOptions{})
	// Drive traffic until at least one request routed each way. Ownership
	// hashes the random-port URLs, so a fixed handful of specs can all land
	// on one side.
	for seed := int64(40); seed < 40+64; seed++ {
		resp, body := postURL(t, tc.urls[0], "/v1/explore", randClusterSpec(t, seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, body)
		}
		if c := o.Counters(); c["cluster.routed"] > 0 && c["cluster.local"] > 0 {
			break
		}
	}
	resp, err := http.Get(tc.urls[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	prom, _ := io.ReadAll(resp.Body)
	for _, family := range []string{
		"dtse_cluster_routed_total", "dtse_cluster_local_total", "dtse_cluster_peer_rtt",
		"dtse_cluster_peers 1", "dtse_cluster_peers_alive 1",
	} {
		if !strings.Contains(string(prom), family) {
			t.Fatalf("/metrics missing %s after cluster traffic:\n%s", family, prom)
		}
	}
	// No family of the deleted incumbent board, subtree distribution,
	// warm-start seeding or timer hedging.
	for _, family := range []string{
		"dtse_cluster_incumbents", "dtse_cluster_incumbent_", "dtse_cluster_subtree_",
		"dtse_assign_pruned_external", "dtse_assign_distributed_searches",
		"dtse_server_warm_seeds", "dtse_assign_incumbent_seeded",
		"dtse_assign_seed_rejected", "dtse_cluster_handoff_seeds",
		"dtse_cluster_hedged",
	} {
		if strings.Contains(string(prom), family) {
			t.Fatalf("/metrics still has %s after cluster traffic:\n%s", family, prom)
		}
	}
}

// --- queue-depth-aware Retry-After ---

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		queued, maxConc int
		typical         time.Duration
		want            int
	}{
		{0, 1, time.Second, 1},             // empty queue: one typical wait
		{0, 4, time.Second, 1},             // wide server, empty queue
		{3, 1, time.Second, 4},             // 3 queued + us = 4 waves
		{3, 4, time.Second, 1},             // 4 slots drain all 4 in one wave
		{8, 2, 500 * time.Millisecond, 3},  // ceil(ceil(9/2)=5 waves * 0.5s)
		{10, 4, 2 * time.Second, 6},        // ceil(11/4)=3 waves * 2s
		{0, 1, 0, 1},                       // no latency signal: flat second
		{0, 0, time.Second, 1},             // degenerate concurrency clamps
		{100, 1, 50 * time.Millisecond, 6}, // long queue, fast requests
		{5, 2, 10 * time.Millisecond, 1},   // sub-second rounds up to 1
		{2, 1, 1500 * time.Millisecond, 5}, // fractional seconds: ceil(3*1.5)
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.queued, c.maxConc, c.typical); got != c.want {
			t.Errorf("retryAfterSeconds(%d, %d, %v) = %d, want %d", c.queued, c.maxConc, c.typical, got, c.want)
		}
	}
}

// TestRetryAfterQueueDepthOnServer: a saturated server's 429 carries a
// hint that grows with its queue depth.
func TestRetryAfterQueueDepthOnServer(t *testing.T) {
	srv := NewServer(ServeOptions{MaxConcurrent: 1, MaxQueue: 1, DefaultTimeout: 3 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Abort()

	// Occupy the slot and the queue with slow demo requests.
	release := make(chan struct{})
	var wg sync.WaitGroup
	srv.sem <- struct{}{} // hold the only slot directly
	srv.queued.Add(1)     // simulate one queued waiter
	defer func() { <-srv.sem; srv.queued.Add(-1); close(release); wg.Wait() }()

	resp, _ := postURL(t, ts.URL, "/v1/explore", `{"demo": {"size": 8}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q not an integer", resp.Header.Get("Retry-After"))
	}
	// One queued + the rejected request, one slot, no latency history →
	// default timeout (3s) per wave, two waves.
	if want := retryAfterSeconds(1, 1, 3*time.Second); ra != want {
		t.Fatalf("Retry-After %d, want %d (queue-depth-aware)", ra, want)
	}
}

// TestClusterBatchRoutingForwardSpans: a batch over a 3-node ring records
// on the front one serve.forward span per sub-batch, named <tid>.p<seq> in
// owner order and tagged with the peer that answered, and counts the items
// the front owns as cluster.local.
func TestClusterBatchRoutingForwardSpans(t *testing.T) {
	sink := &spanSink{}
	o := obs.New(sink)
	tc := newTestCluster(t, 3, func(i int) ServeOptions {
		if i == 0 {
			return ServeOptions{Obs: o}
		}
		return ServeOptions{}
	}, ClusterOptions{})

	// Pick specs until the front owns one and each peer owns one.
	router := tc.servers[0].cluster.router
	var items []string
	owners := map[string]bool{}
	for seed := int64(900); len(owners) < 3; seed++ {
		if seed > 1200 {
			t.Fatalf("no spec set covering every node; owners %v", owners)
		}
		b := randClusterSpec(t, seed)
		p, _, err := parseExplore([]byte(b), nil)
		if err != nil {
			t.Fatal(err)
		}
		owner := router.Self()
		if !router.Owns(routeKey(p)) {
			owner, _ = router.PreferredPeer(routeKey(p))
		}
		if !owners[owner] || len(items) < 6 {
			owners[owner] = true
			items = append(items, b)
		}
	}
	resp, body := postURL(t, tc.urls[0], "/v1/explore/batch", batchBody(items...))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	tid := resp.Header.Get("X-Trace-Id")

	peers := []string{}
	for owner := range owners {
		if owner != router.Self() {
			peers = append(peers, owner)
		}
	}
	sort.Strings(peers)
	fwd := sink.find("serve.forward")
	if len(fwd) != len(peers) {
		t.Fatalf("front recorded %d serve.forward spans for %d sub-batches", len(fwd), len(peers))
	}
	got := map[string]string{}
	for _, r := range fwd {
		got[fmt.Sprint(r.Fields["trace_id"])] = fmt.Sprint(r.Fields["peer"])
	}
	for seq, peer := range peers {
		if g := got[fmt.Sprintf("%s.p%d", tid, seq+1)]; g != peer {
			t.Errorf("sub-batch %d: span peer %q, want %q (spans %v)", seq+1, g, peer, got)
		}
	}
	if c := o.Counters(); c["cluster.local"] == 0 || c["cluster.routed"] != int64(len(peers)) {
		t.Errorf("cluster.local %d, cluster.routed %d; want > 0 and %d", c["cluster.local"], c["cluster.routed"], len(peers))
	}
}
