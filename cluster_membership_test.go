package dtse

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/spec"
)

// obsOpts builds nodes with a live Observer so the handoff counters the
// tests assert on actually count (a nil Observer no-ops them).
func obsOpts(int) ServeOptions { return ServeOptions{Obs: obs.New()} }

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timeout: " + msg)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// movedSpecs generates deterministic spec bodies whose routing fingerprint
// is owned by `to` under next but not under cur — the keys that must move
// (and be handed off) when the topology changes from cur to next.
func movedSpecs(t *testing.T, cur, next *cluster.Ring, to string, want int) []string {
	t.Helper()
	var out []string
	for seed := int64(0); seed < 200 && len(out) < want; seed++ {
		body := randClusterSpec(t, seed)
		p, _, err := parseExplore([]byte(body), nil)
		if err != nil {
			t.Fatal(err)
		}
		key := routeKey(p)
		if next.Owner(key) == to && (cur == nil || cur.Owner(key) != to) {
			out = append(out, body)
		}
	}
	if len(out) == 0 {
		t.Fatal("no generated spec moves to the target node; widen the seed range")
	}
	return out
}

// TestClusterJoinMidRunByteIdentical is the tentpole e2e: a third node
// joins a live 2-node cluster knowing one member; membership converges
// on every node, the old owners stream the moved shard to the joiner, and
// the joiner then answers the moved requests byte-identically to the solo
// baseline — serving them from its disk tier, which only handoff could
// have populated (counter-asserted, so the assertion cannot pass
// vacuously).
func TestClusterJoinMidRunByteIdentical(t *testing.T) {
	solo := NewServer(ServeOptions{})
	soloTS := httptest.NewServer(solo.Handler())
	defer soloTS.Close()
	defer solo.Abort()

	tc := newTestCluster(t, 2, obsOpts, ClusterOptions{
		GossipInterval: 50 * time.Millisecond,
	})

	// The joiner exists (its URL is fixed) but has not joined yet. It gets
	// a disk tier, so the handed-off records land durably and the re-posts
	// below surface as disk-tier hits.
	disk, err := memo.OpenDiskTier(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	joiner := NewServer(ServeOptions{Disk: disk, Obs: obs.New()})
	joinTS := httptest.NewServer(joiner.Handler())
	defer joinTS.Close()
	defer joiner.Abort()

	curRing := cluster.NewRing([]string{tc.urls[0], tc.urls[1]})
	nextRing := cluster.NewRing([]string{tc.urls[0], tc.urls[1], joinTS.URL})
	bodies := movedSpecs(t, curRing, nextRing, joinTS.URL, 3)

	// Compute the moved specs on the live 2-node cluster: each is cached
	// at its current owner. Pin the baseline against the solo node.
	refs := make([][]byte, len(bodies))
	for i, body := range bodies {
		_, sref := postURL(t, soloTS.URL, "/v1/explore", body)
		resp, ref := postURL(t, tc.urls[0], "/v1/explore", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pre-join explore %d: status %d: %s", i, resp.StatusCode, ref)
		}
		if !bytes.Equal(ref, sref) {
			t.Fatalf("pre-join response %d differs from solo", i)
		}
		refs[i] = ref
	}

	// Join mid-run, knowing only member A.
	if err := joiner.JoinCluster(ClusterOptions{
		Self:           joinTS.URL,
		Peers:          []string{tc.urls[0]},
		GossipInterval: 50 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	all := append([]*Server{joiner}, tc.servers...)
	waitUntil(t, 10*time.Second, func() bool {
		for _, s := range all {
			if len(s.cluster.router.Members()) != 3 {
				return false
			}
		}
		return true
	}, "membership never converged to 3 nodes")

	// Handoff: every moved record reaches the joiner's disk tier.
	waitUntil(t, 10*time.Second, func() bool {
		return joiner.obs.Counter("cluster.handoff_entries").Value() >= int64(len(bodies)) &&
			disk.Len(memo.Requests) >= len(bodies)
	}, "handoff records never reached the joiner's disk tier")

	// The joiner now owns the moved keys and serves them byte-identically,
	// from the handed-off records (disk hits prove it: nothing else ever
	// wrote this node's disk tier).
	preHits := disk.Stats().Hits
	for i, body := range bodies {
		resp, got := postURL(t, joinTS.URL, "/v1/explore", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-join explore %d: status %d: %s", i, resp.StatusCode, got)
		}
		if !bytes.Equal(got, refs[i]) {
			t.Fatalf("post-join response %d differs:\nref: %s\ngot: %s", i, refs[i], got)
		}
	}
	if hits := disk.Stats().Hits - preHits; hits < 1 {
		t.Fatalf("joiner served %d disk-tier hits, want >= 1 (handoff was vacuous)", hits)
	}
	if n := joiner.obs.Counter("cluster.handoff_entries").Value(); n < int64(len(bodies)) {
		t.Fatalf("handoff_entries = %d, want >= %d", n, len(bodies))
	}
	if imp := disk.Stats().Imported; imp < int64(len(bodies)) {
		t.Fatalf("disk Imported = %d, want >= %d", imp, len(bodies))
	}
}

// TestClusterLeaveMidRunByteIdentical: a member of a live 3-node cluster
// leaves gracefully; the survivors merge the goodbye before the leaver
// stops serving, receive its shard via handoff, and keep answering the
// moved requests byte-identically with zero failed requests.
func TestClusterLeaveMidRunByteIdentical(t *testing.T) {
	solo := NewServer(ServeOptions{})
	soloTS := httptest.NewServer(solo.Handler())
	defer soloTS.Close()
	defer solo.Abort()

	tc := newTestCluster(t, 3, obsOpts, ClusterOptions{
		GossipInterval: 50 * time.Millisecond,
	})
	leaver := tc.urls[2]
	ring3 := cluster.NewRing(tc.urls)
	bodies := movedSpecs(t, nil, ring3, leaver, 3) // specs the leaver owns now

	refs := make([][]byte, len(bodies))
	for i, body := range bodies {
		_, sref := postURL(t, soloTS.URL, "/v1/explore", body)
		resp, ref := postURL(t, tc.urls[0], "/v1/explore", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pre-leave explore %d: status %d: %s", i, resp.StatusCode, ref)
		}
		if !bytes.Equal(ref, sref) {
			t.Fatalf("pre-leave response %d differs from solo", i)
		}
		refs[i] = ref
	}

	// Graceful leave: announce, hand the shard over, wait for the streams.
	if err := tc.servers[2].LeaveCluster(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, func() bool {
		return len(tc.servers[0].cluster.router.Members()) == 2 &&
			len(tc.servers[1].cluster.router.Members()) == 2
	}, "survivors never saw the leave")
	waitUntil(t, 10*time.Second, func() bool {
		got := tc.servers[0].obs.Counter("cluster.handoff_entries").Value() +
			tc.servers[1].obs.Counter("cluster.handoff_entries").Value()
		return got >= int64(len(bodies))
	}, "survivors never received the leaver's shard")

	// Every moved request keeps its exact bytes through both survivors —
	// zero failures, served from the handed-off cache.
	for i, body := range bodies {
		for ni := 0; ni < 2; ni++ {
			resp, got := postURL(t, tc.urls[ni], "/v1/explore", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("post-leave explore %d via node %d: status %d: %s", i, ni, resp.StatusCode, got)
			}
			if !bytes.Equal(got, refs[i]) {
				t.Fatalf("post-leave response %d via node %d differs", i, ni)
			}
		}
	}
	// Non-vacuous: at least one survivor answered from the handed-off
	// session cache rather than recomputing.
	hits := tc.servers[0].memo.Stats(memo.Requests).Hits + tc.servers[1].memo.Stats(memo.Requests).Hits
	if hits < 1 {
		t.Fatalf("no survivor served a memo hit after handoff (hits=%d)", hits)
	}
}

// newHandoffNode builds a cluster node from opts that shares the ring with
// one fake peer. Gossip runs hourly, so the peer is never contacted: it only
// splits the keyspace, which makes the receiver's ownership gate refuse
// some keys.
func newHandoffNode(tb testing.TB, opts ServeOptions) *Server {
	tb.Helper()
	s := NewServer(opts)
	if err := s.JoinCluster(ClusterOptions{
		Self:           "http://self.test",
		Peers:          []string{"http://peer.test"},
		GossipInterval: time.Hour,
	}); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Abort)
	return s
}

// handoffKeys returns one Requests key the node owns and one it does not,
// both keys of demo requests.
func handoffKeys(tb testing.TB, s *Server) (owned, foreign memo.Key) {
	tb.Helper()
	var haveOwned, haveForeign bool
	for size := 16; !haveOwned || !haveForeign; size++ {
		if size > 4096 {
			tb.Fatal("no demo key on one side of the ring; vnode layout changed?")
		}
		p, _, err := parseExplore([]byte(fmt.Sprintf(`{"demo":{"size":%d,"seed":1,"quant":1}}`, size)), nil)
		if err != nil {
			tb.Fatal(err)
		}
		if s.cluster.router.Owns(routeKey(p)) {
			owned, haveOwned = p.key, true
		} else {
			foreign, haveForeign = p.key, true
		}
	}
	return owned, foreign
}

// TestCacheKeyCarriesRouteKey pins routing placement under digest keys: a
// Requests key's word, which handoff export and import place the key by,
// is the request's ring fingerprint — FNV-1a of the canonical spec JSON
// for spec requests, so budget and knob variants co-locate while keeping
// distinct keys, and of the dedup string for demo requests.
func TestCacheKeyCarriesRouteKey(t *testing.T) {
	body := randClusterSpec(t, 7)
	parse := func(body string) (*parsedRequest, *spec.Spec) {
		t.Helper()
		p, sp, err := parseExplore([]byte(body), nil)
		if err != nil {
			t.Fatal(err)
		}
		if routeKey(p) != p.key.Word() {
			t.Fatalf("%.60s: routeKey %x, key word %x", body, routeKey(p), p.key.Word())
		}
		return p, sp
	}
	base, baseSpec := parse(body)
	canon, err := spec.AppendJSON(nil, baseSpec)
	if err != nil {
		t.Fatal(err)
	}
	if want := memo.Fingerprint64(canon); routeKey(base) != want {
		t.Fatalf("spec route %x, want FNV-1a of the canonical spec %x", routeKey(base), want)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(body), "", "\t"); err != nil {
		t.Fatal(err)
	}
	if p, _ := parse(indented.String()); p.key != base.key {
		t.Fatal("reformatting the request body changed its key")
	}
	variants := []string{
		strings.Replace(body, `"budget": `, `"budget": 1`, 1),
		strings.Replace(body, `"budget": `, `"params": {"onchip": 2, "inplace": true}, "budget": `, 1),
		strings.Replace(body, `"budget": `, `"params": {"threshold": 0, "frame": 0.5}, "budget": `, 1),
	}
	for _, v := range variants {
		p, _ := parse(v)
		if routeKey(p) != routeKey(base) {
			t.Errorf("%.60s: variant routes to %x, want the spec's %x", v, routeKey(p), routeKey(base))
		}
		if p.key == base.key {
			t.Errorf("%.60s: variant shares the base request's key", v)
		}
	}
	demo, _ := parse(`{"demo": {"size": 16, "seed": 1, "quant": 1}}`)
	if want := memo.Fingerprint64("demo|16|1|1"); routeKey(demo) != want {
		t.Fatalf("demo route %x, want FNV-1a of its dedup string %x", routeKey(demo), want)
	}
}

// postHandoff drives handleHandoff with one raw body.
func postHandoff(s *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/internal/handoff", bytes.NewReader(body))
	req.Header = internalHeaders("")
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// TestHandoffIgnoresLegacySeeds pins mixed-version handoff: a peer built
// before warm starts were removed still sends a "seeds" array next to its
// records. The receiver must ignore it, answer 204 and import the records
// it owns.
func TestHandoffIgnoresLegacySeeds(t *testing.T) {
	s := newHandoffNode(t, ServeOptions{Obs: obs.New()})
	owned, foreign := handoffKeys(t, s)
	val, _ := encodeServed(&servedResponse{status: http.StatusOK, body: []byte("{}\n")})
	body := mustMarshal(map[string]any{
		"from": "http://peer.test",
		"records": []handoffRec{
			{Key: owned, Val: val},
			{Key: foreign, Val: val},
		},
		"seeds": []map[string]any{
			{"canon": `{"name":"old"}`, "assign": map[string]int{"g": 0}},
		},
	})
	if rec := postHandoff(s, body); rec.Code != http.StatusNoContent {
		t.Fatalf("legacy handoff: status %d: %s", rec.Code, rec.Body)
	}
	if n := s.obs.Counter("cluster.handoff_entries").Value(); n != 1 {
		t.Fatalf("handoff_entries = %d, want 1", n)
	}
	if n := s.obs.Counter("cluster.handoff_refused").Value(); n != 1 {
		t.Fatalf("handoff_refused = %d, want 1", n)
	}
	var keys []memo.Key
	s.memo.Range(memo.Requests, func(key memo.Key, _ any) bool {
		keys = append(keys, key)
		return true
	})
	if len(keys) != 1 || keys[0] != owned {
		t.Fatalf("imported keys = %v, want only the owned %v", keys, owned)
	}
}
