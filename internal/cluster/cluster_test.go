package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/memo"
	"repro/internal/obs"
)

// --- ring ---

func TestRingAgreementAcrossMemberOrder(t *testing.T) {
	a := NewRing([]string{"n1", "n2", "n3"})
	b := NewRing([]string{"n3", "n1", "n2", "n1"}) // shuffled, with a duplicate
	for i := 0; i < 1000; i++ {
		key := memo.Fingerprint64(fmt.Sprintf("key-%d", i))
		if ao, bo := a.Owner(key), b.Owner(key); ao != bo {
			t.Fatalf("ring views disagree for key %d: %q vs %q", key, ao, bo)
		}
	}
}

func TestRingDistribution(t *testing.T) {
	r := NewRing([]string{"n1", "n2", "n3"})
	counts := map[string]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[r.Owner(memo.Fingerprint64(fmt.Sprintf("key-%d", i)))]++
	}
	for _, m := range r.Members() {
		if frac := float64(counts[m]) / n; frac < 0.20 || frac > 0.47 {
			t.Fatalf("member %s owns %.1f%% of keys; want a roughly even split", m, 100*frac)
		}
	}
}

func TestRingWalkProperties(t *testing.T) {
	r := NewRing([]string{"n1", "n2", "n3", "n4"})
	for i := 0; i < 200; i++ {
		key := memo.Fingerprint64(fmt.Sprintf("key-%d", i))
		walk := r.Walk(key)
		if len(walk) != 4 {
			t.Fatalf("walk has %d members, want 4", len(walk))
		}
		if walk[0] != r.Owner(key) {
			t.Fatalf("walk starts at %q, owner is %q", walk[0], r.Owner(key))
		}
		seen := map[string]bool{}
		for _, m := range walk {
			if seen[m] {
				t.Fatalf("walk repeats member %q", m)
			}
			seen[m] = true
		}
	}
}

// --- router helpers ---

// keyOwnedBy finds a key whose ring walk starts at member with every other
// remote peer also preceding self (so failover stays remote in tests).
func keyOwnedBy(t *testing.T, r *Router, member string) uint64 {
	t.Helper()
	for i := 0; i < 100000; i++ {
		key := memo.Fingerprint64(fmt.Sprintf("probe-%d", i))
		cands := r.candidates(key)
		if len(cands) == len(r.peers) && cands[0].id == member {
			return key
		}
	}
	t.Fatalf("no key owned by %s found", member)
	return 0
}

// eject charges p the failures that take it out of the ring walk.
func eject(p *Peer) {
	for i := 0; i < ejectAfter; i++ {
		p.fail()
	}
}

func newTestRouter(t *testing.T, peers []string, cfg Config) *Router {
	t.Helper()
	cfg.Self = "http://self.invalid"
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.SetMembers(peers)
	return r
}

func TestForwardRoutesToOwner(t *testing.T) {
	var hitA, hitB atomic.Int64
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hitA.Add(1)
		w.Write([]byte("from-a"))
	}))
	defer a.Close()
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hitB.Add(1)
		w.Write([]byte("from-b"))
	}))
	defer b.Close()
	r := newTestRouter(t, []string{a.URL, b.URL}, Config{})
	key := keyOwnedBy(t, r, a.URL)
	res, ok := r.Forward(context.Background(), key, http.MethodPost, "/x", []byte("{}"), nil)
	if !ok {
		t.Fatal("forward failed")
	}
	if res.Peer != a.URL || string(res.Body) != "from-a" {
		t.Fatalf("got peer=%s body=%q; want the owner a", res.Peer, res.Body)
	}
	if hitB.Load() != 0 {
		t.Fatalf("non-owner served %d requests", hitB.Load())
	}
}

// TestForwardTimesOutOnHungOwner: an owner that accepts the request but
// never answers holds the forward for its deadline only. Forward gives up
// with ok=false (the caller computes locally), charges the owner one
// failure and counts the timeout; the next candidate is not tried.
func TestForwardTimesOutOnHungOwner(t *testing.T) {
	release := make(chan struct{})
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select { // the owner hangs until the attempt is cancelled
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer a.Close()
	defer close(release)
	var hitB atomic.Int64
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hitB.Add(1)
		w.Write([]byte("from-b"))
	}))
	defer b.Close()
	o := obs.New()
	const deadline = 50 * time.Millisecond
	r := newTestRouter(t, []string{a.URL, b.URL}, Config{ForwardTimeout: deadline, Obs: o})
	key := keyOwnedBy(t, r, a.URL)
	start := time.Now()
	res, ok := r.Forward(context.Background(), key, http.MethodPost, "/x", []byte("{}"), nil)
	if took := time.Since(start); took > deadline+time.Second {
		t.Fatalf("forward to a hung owner took %v; want about %v", took, deadline)
	}
	if ok {
		t.Fatalf("forward to a hung owner answered %+v; want ok=false", res)
	}
	if hitB.Load() != 0 {
		t.Fatalf("the next candidate served %d requests after the deadline", hitB.Load())
	}
	pa := r.peers[a.URL]
	pa.mu.Lock()
	fails := pa.fails
	pa.mu.Unlock()
	if fails != 1 {
		t.Fatalf("hung owner charged %d failures, want 1", fails)
	}
	if c := o.Counters(); c["cluster.forward_timeouts"] != 1 || c["cluster.peer_errors"] != 0 {
		t.Fatalf("counters %v; want one forward timeout and no peer error", c)
	}
}

func TestForwardFailsOverAndEjects(t *testing.T) {
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer a.Close()
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("from-b"))
	}))
	defer b.Close()
	r := newTestRouter(t, []string{a.URL, b.URL}, Config{})
	key := keyOwnedBy(t, r, a.URL)
	for i := 0; i < 3; i++ {
		res, ok := r.Forward(context.Background(), key, http.MethodPost, "/x", []byte("{}"), nil)
		if !ok || res.Peer != b.URL {
			t.Fatalf("attempt %d: ok=%v peer=%v; want failover to b", i, ok, res)
		}
	}
	if r.peers[a.URL].alive() {
		t.Fatal("peer a should be ejected after 3 consecutive failures")
	}
	// An ejected owner's keys fall through the walk without contacting it.
	res, ok := r.Forward(context.Background(), key, http.MethodPost, "/x", []byte("{}"), nil)
	if !ok || res.Peer != b.URL {
		t.Fatalf("post-ejection forward: ok=%v res=%+v; want an answer from b", ok, res)
	}
}

func TestSetMembersReentrant(t *testing.T) {
	r := newTestRouter(t, []string{"http://a.invalid"}, Config{})
	pa := r.peer("http://a.invalid")
	if pa == nil {
		t.Fatal("initial peer missing")
	}
	// Eject a, then remove it from the membership.
	eject(pa)
	added, removed := r.SetMembers([]string{r.Self()})
	if len(added) != 0 || len(removed) != 1 || removed[0] != "http://a.invalid" {
		t.Fatalf("unexpected membership delta: added=%v removed=%v", added, removed)
	}
	if r.peer("http://a.invalid") != nil {
		t.Fatal("removed peer should be dropped from the peer map")
	}
	// The member returns (new incarnation): it must come back with fresh
	// health state, not the stale ejection.
	added, removed = r.SetMembers([]string{"http://a.invalid"})
	if len(added) != 1 || len(removed) != 0 {
		t.Fatalf("unexpected rejoin delta: added=%v removed=%v", added, removed)
	}
	back := r.peer("http://a.invalid")
	if back == nil || !back.alive() {
		t.Fatal("rejoined member must start alive, not inherit the ejection")
	}
	if back == pa {
		t.Fatal("rejoined member should get fresh Peer state")
	}
	// Same set again is a no-op.
	added, removed = r.SetMembers([]string{"http://a.invalid"})
	if len(added) != 0 || len(removed) != 0 {
		t.Fatalf("idempotent SetMembers should report no delta, got added=%v removed=%v", added, removed)
	}
	// Retained members keep health state across unrelated changes.
	eject(back)
	r.SetMembers([]string{"http://a.invalid", "http://b.invalid"})
	if r.peer("http://a.invalid") != back {
		t.Fatal("retained member should keep its Peer state across a ring change")
	}
	if back.alive() {
		t.Fatal("retained member's ejection must survive the ring change")
	}
}

func TestPeersReturnsCopy(t *testing.T) {
	r := newTestRouter(t, []string{"http://a.invalid"}, Config{})
	m := r.Peers()
	delete(m, "http://a.invalid")
	m["http://z.invalid"] = &Peer{id: "http://z.invalid"}
	if r.peer("http://a.invalid") == nil {
		t.Fatal("mutating the returned map must not affect the router")
	}
	if r.peer("http://z.invalid") != nil {
		t.Fatal("mutating the returned map must not affect the router")
	}
}

func TestOwnershipShiftsWithLiveness(t *testing.T) {
	r := newTestRouter(t, []string{"http://a.invalid", "http://b.invalid"}, Config{})
	key := keyOwnedBy(t, r, "http://a.invalid")
	if r.Owns(key) {
		t.Fatal("self should not own a peer's key while the peer is up")
	}
	eject(r.peers["http://a.invalid"])
	eject(r.peers["http://b.invalid"])
	if !r.Owns(key) {
		t.Fatal("self should inherit the key once every preceding walk member is down")
	}
}
