package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
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

func newTestRouter(t *testing.T, peers []string, cfg Config) *Router {
	t.Helper()
	cfg.Self = "http://self.invalid"
	cfg.Peers = peers
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	r := newTestRouter(t, []string{a.URL, b.URL}, Config{EjectAfter: 3, EjectFor: time.Hour})
	key := keyOwnedBy(t, r, a.URL)
	for i := 0; i < 3; i++ {
		res, ok := r.Forward(context.Background(), key, http.MethodPost, "/x", []byte("{}"), nil)
		if !ok || res.Peer != b.URL {
			t.Fatalf("attempt %d: ok=%v peer=%v; want failover to b", i, ok, res)
		}
	}
	if r.peers[a.URL].alive(time.Now()) {
		t.Fatal("peer a should be ejected after 3 consecutive failures")
	}
	// An ejected owner's keys fall through the walk without contacting it.
	res, ok := r.Forward(context.Background(), key, http.MethodPost, "/x", []byte("{}"), nil)
	if !ok || res.Peer != b.URL {
		t.Fatalf("post-ejection forward: ok=%v res=%+v; want an answer from b", ok, res)
	}
}

func TestPeerRejoinsAfterWindow(t *testing.T) {
	p := &Peer{id: "x"}
	now := time.Now()
	for i := 0; i < 3; i++ {
		p.fail(3, 50*time.Millisecond, now)
	}
	if p.alive(now) {
		t.Fatal("peer should be down right after ejection")
	}
	after := now.Add(100 * time.Millisecond)
	if p.alive(after) {
		t.Fatal("an expired window must not read as alive until a probe succeeds")
	}
	if !p.probeAlive(after) {
		t.Fatal("the first caller after the window should win the half-open probe")
	}
	if p.probeAlive(after) {
		t.Fatal("a second caller must not get a concurrent probe")
	}
	p.ok(time.Millisecond)
	if !p.alive(now) {
		t.Fatal("a successful probe should fully revive the peer")
	}
	if !p.probeAlive(now) {
		t.Fatal("a revived peer should be freely routable")
	}
}

// TestHalfOpenSingleProbe is the concurrency regression for the probing
// flag: after the ejection window expires, exactly one of N concurrent
// callers may contact the peer; the rest keep treating it as down. On the
// pre-fix Router every caller flipped alive at once (a rejoin stampede).
func TestHalfOpenSingleProbe(t *testing.T) {
	p := &Peer{id: "x"}
	now := time.Now()
	p.fail(1, 10*time.Millisecond, now)
	after := now.Add(20 * time.Millisecond)

	const callers = 64
	var wg sync.WaitGroup
	var won int64
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if p.probeAlive(after) {
				atomic.AddInt64(&won, 1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if won != 1 {
		t.Fatalf("exactly one caller should win the half-open probe, got %d", won)
	}

	// A failed probe re-ejects; the slot is only re-winnable after the
	// new window, and again by exactly one caller.
	p.fail(1, 10*time.Millisecond, after)
	if p.probeAlive(after.Add(time.Millisecond)) {
		t.Fatal("peer should be fully down again after a failed probe")
	}
	later := after.Add(20 * time.Millisecond)
	if !p.probeAlive(later) {
		t.Fatal("next window should re-open a probe slot")
	}
	if p.probeAlive(later) {
		t.Fatal("second probe in the same window should be refused")
	}

	// ok() clears the flag and fully revives.
	p.ok(time.Millisecond)
	var aliveN int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p.probeAlive(later) {
				atomic.AddInt64(&aliveN, 1)
			}
		}()
	}
	wg.Wait()
	if aliveN != callers {
		t.Fatalf("a revived peer should admit everyone, got %d/%d", aliveN, callers)
	}
}

// TestHalfOpenStaleProbeExpires pins that an abandoned probe claim (winner
// never reported back) does not wedge the peer down forever.
func TestHalfOpenStaleProbeExpires(t *testing.T) {
	p := &Peer{id: "x"}
	now := time.Now()
	p.fail(1, 10*time.Millisecond, now)
	after := now.Add(20 * time.Millisecond)
	if !p.probeAlive(after) {
		t.Fatal("first caller should win the probe")
	}
	if p.probeAlive(after.Add(5 * time.Millisecond)) {
		t.Fatal("probe slot should still be held within the window")
	}
	if !p.probeAlive(after.Add(15 * time.Millisecond)) {
		t.Fatal("a stale probe claim should expire and be re-winnable")
	}
}

// TestRouterHalfOpenNoStampede drives the same property through the
// Router's forwarding path: a down peer whose window has expired shows up
// in at most one concurrent caller's candidate list.
func TestRouterHalfOpenNoStampede(t *testing.T) {
	r := newTestRouter(t, []string{"http://a.invalid"}, Config{EjectAfter: 1, EjectFor: 5 * time.Millisecond})
	key := keyOwnedBy(t, r, "http://a.invalid")
	r.peer("http://a.invalid").fail(1, 5*time.Millisecond, time.Now())
	time.Sleep(20 * time.Millisecond) // let the ejection window expire

	const callers = 32
	var wg sync.WaitGroup
	var sawPeer int64
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if len(r.candidates(key)) > 0 {
				atomic.AddInt64(&sawPeer, 1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if sawPeer != 1 {
		t.Fatalf("exactly one caller should see the half-open peer as a candidate, got %d", sawPeer)
	}
	if r.Owns(key) != true {
		t.Fatal("Owns must keep reading the peer as down while the probe is out")
	}
}

func TestSetMembersReentrant(t *testing.T) {
	r := newTestRouter(t, []string{"http://a.invalid"}, Config{EjectAfter: 1, EjectFor: time.Hour})
	pa := r.peer("http://a.invalid")
	if pa == nil {
		t.Fatal("initial peer missing")
	}
	// Eject a, then remove it from the membership.
	pa.fail(1, time.Hour, time.Now())
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
	if back == nil || !back.alive(time.Now()) {
		t.Fatal("rejoined member must start alive, not inherit downUntil")
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
	back.fail(1, time.Hour, time.Now())
	r.SetMembers([]string{"http://a.invalid", "http://b.invalid"})
	if r.peer("http://a.invalid") != back {
		t.Fatal("retained member should keep its Peer state across a ring change")
	}
	if back.alive(time.Now()) {
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
	r := newTestRouter(t, []string{"http://a.invalid", "http://b.invalid"}, Config{EjectAfter: 1, EjectFor: time.Hour})
	key := keyOwnedBy(t, r, "http://a.invalid")
	if r.Owns(key) {
		t.Fatal("self should not own a peer's key while the peer is up")
	}
	now := time.Now()
	r.peers["http://a.invalid"].fail(1, time.Hour, now)
	r.peers["http://b.invalid"].fail(1, time.Hour, now)
	if !r.Owns(key) {
		t.Fatal("self should inherit the key once every preceding walk member is down")
	}
}
