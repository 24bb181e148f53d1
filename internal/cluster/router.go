package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// The forwarding and health policy.
const (
	// defaultForwardTimeout bounds one whole forward, failover included;
	// past it the caller computes the request itself.
	defaultForwardTimeout = 2 * time.Second
	// ejectAfter consecutive failures mark a peer down until a successful
	// exchange with it, in practice a gossip round (PeerOK).
	ejectAfter = 3
	// maxPeerResponse bounds a forwarded response body read.
	maxPeerResponse = 32 << 20
)

// Config configures a Router.
type Config struct {
	// Self is this node's advertised base URL (scheme://host:port).
	Self string
	// ForwardTimeout bounds one Forward, failover included; 0 means
	// defaultForwardTimeout. An attempt cut off by it counts as a failure
	// of the peer it was waiting on.
	ForwardTimeout time.Duration
	// Obs receives the dtse_cluster_* counters and per-peer latency
	// histograms; nil disables that telemetry.
	Obs *obs.Observer
}

// Peer is one remote member's health and latency state.
type Peer struct {
	id   string
	hist *obs.Histogram // forwarded-request RTT, microseconds

	mu    sync.Mutex
	fails int  // consecutive failures
	down  bool // ejected: skipped by the ring walk until a successful exchange
}

// ID returns the peer's member URL.
func (p *Peer) ID() string { return p.id }

// alive reports whether the peer is in the ring walk.
func (p *Peer) alive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.down
}

func (p *Peer) ok(rtt time.Duration) {
	p.hist.ObserveUS(rtt.Microseconds())
	p.mu.Lock()
	p.fails = 0
	p.down = false
	p.mu.Unlock()
}

// fail records one failure; it returns true when this failure ejected the
// peer (crossed the threshold while it was alive).
func (p *Peer) fail() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fails++
	if p.fails < ejectAfter || p.down {
		return false
	}
	p.down = true
	return true
}

// Router owns the ring view plus per-peer health, and forwards requests to
// their owners, failing over down the ring walk. The ring and peer map
// mutate under mu when membership changes; Peer health state is
// independently locked.
type Router struct {
	cfg    Config
	self   string
	obs    *obs.Observer
	client *http.Client

	mu    sync.RWMutex
	ring  *Ring
	peers map[string]*Peer // remote members only
}

// New builds a Router whose ring holds self alone. Self must be non-empty;
// SetMembers supplies the other members.
func New(cfg Config) (*Router, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: self URL must be set")
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = defaultForwardTimeout
	}
	r := &Router{
		cfg:   cfg,
		self:  cfg.Self,
		peers: make(map[string]*Peer),
		obs:   cfg.Obs,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}},
	}
	r.SetMembers(nil)
	return r, nil
}

// newPeer builds fresh health state for member m. The latency histogram is
// resolved by name through the observer, so a member that leaves and rejoins
// reuses the same labelled series instead of leaking a duplicate.
func (r *Router) newPeer(m string) *Peer {
	p := &Peer{id: m}
	if r.obs != nil {
		p.hist = r.obs.Histogram(obs.Label("cluster.peer_rtt", "peer", m))
	} else {
		p.hist = obs.NewHistogram()
	}
	return p
}

// SetMembers replaces the member set (self is always included) and rebuilds
// the ring. Retained peers keep their health state; removed peers are
// dropped entirely, so a member that returns later — e.g. with a new
// incarnation — starts with fresh health state rather than inheriting a
// stale ejection. Re-entrant: calling with the current set is a no-op.
// Returns the members added and removed, self excluded.
func (r *Router) SetMembers(members []string) (added, removed []string) {
	ring := NewRing(append([]string{r.self}, members...))
	r.mu.Lock()
	defer r.mu.Unlock()
	next := make(map[string]*Peer, len(ring.Members()))
	for _, m := range ring.Members() {
		if m == r.self {
			continue
		}
		if p, ok := r.peers[m]; ok {
			next[m] = p
			continue
		}
		next[m] = r.newPeer(m)
		added = append(added, m)
	}
	for m := range r.peers {
		if _, ok := next[m]; !ok {
			removed = append(removed, m)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	r.ring = ring
	r.peers = next
	return added, removed
}

// Ring returns the current ring snapshot (immutable once built).
func (r *Router) Ring() *Ring {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring
}

// snapshot returns the current ring and peer map under the read lock. The
// map must not be mutated by callers; membership changes swap in a new map.
func (r *Router) snapshot() (*Ring, map[string]*Peer) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring, r.peers
}

// peer returns the health state for member id, nil when unknown or self.
func (r *Router) peer(id string) *Peer {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.peers[id]
}

// Self returns this node's member URL.
func (r *Router) Self() string { return r.self }

// Members returns the full sorted member set (self included).
func (r *Router) Members() []string { return r.Ring().Members() }

// Peers returns a copy of the remote peer map keyed by member URL. The
// *Peer values are live (their health state keeps updating); the map itself
// is the caller's to keep, safe across concurrent membership changes.
func (r *Router) Peers() map[string]*Peer {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]*Peer, len(r.peers))
	for id, p := range r.peers {
		out[id] = p
	}
	return out
}

// PeerOK records an out-of-band successful exchange with member id. The
// gossip loop calls it each round a peer answers, and it is the only way
// an ejected peer gets back into the ring walk, since a down peer gets no
// forwards. Unknown ids are ignored.
func (r *Router) PeerOK(id string, rtt time.Duration) {
	if p := r.peer(id); p != nil {
		p.ok(rtt)
	}
}

// PeerFail records an out-of-band failed exchange with member id, feeding
// the same ejection policy as forwarded requests.
func (r *Router) PeerFail(id string) {
	if p := r.peer(id); p != nil {
		r.fail(p)
	}
}

// fail charges p one failure and counts the ejection it may cause.
func (r *Router) fail(p *Peer) {
	if p.fail() {
		r.counter("cluster.ejected", 1)
	}
}

// Owns reports whether this node should serve key right now: self is the
// first *alive* member in the key's ring walk. Liveness shifts ownership —
// when a peer is ejected its keys fall through to the next walk member —
// and shifts it back on rejoin.
func (r *Router) Owns(key uint64) bool {
	_, remote := r.PreferredPeer(key)
	return !remote
}

// PreferredPeer returns the first alive remote peer in key's ring walk
// before self, if any: the owner a request's items are grouped by and the
// first peer Forward contacts.
func (r *Router) PreferredPeer(key uint64) (string, bool) {
	if cands := r.candidates(key); len(cands) > 0 {
		return cands[0].id, true
	}
	return "", false
}

// candidates returns the alive remote peers preceding self in key's ring
// walk — the forwarding preference order. Empty means self owns the key
// (or every preceding peer is down and the key fell through to self).
func (r *Router) candidates(key uint64) []*Peer {
	ring, peers := r.snapshot()
	var out []*Peer
	for _, m := range ring.Walk(key) {
		if m == r.self {
			break
		}
		if p := peers[m]; p != nil && p.alive() {
			out = append(out, p)
		}
	}
	return out
}

// PeerResult is one successful forwarded exchange.
type PeerResult struct {
	Status int
	Body   []byte
	Peer   string // member URL that answered
}

// counter bumps a cluster counter when telemetry is wired.
func (r *Router) counter(name string, n int64) {
	if r.obs != nil {
		r.obs.Counter(name).Add(n)
	}
}

// Forward sends the request to key's owner, failing over down the ring
// walk: the preferred peer first, the next ring node on a transport error,
// a 5xx or a 429, until a peer answers or the candidates run out. One
// attempt is in flight at a time, and ForwardTimeout bounds the whole walk:
// when it expires the attempt is cancelled and counted as its peer's
// failure, so a peer that accepts connections but never answers is ejected
// after ejectAfter timeouts instead of stalling every request. ok=false
// means no peer answered in time — the caller runs the request locally, so
// a dead or hung peer set degrades to single-node behaviour instead of
// failing requests.
//
// A response with status < 500 (other than 429) is an answer: 4xx from a
// peer is the deterministic response to a bad request, not a peer failure.
func (r *Router) Forward(ctx context.Context, key uint64, method, path string, body []byte, hdr http.Header) (*PeerResult, bool) {
	cands := r.candidates(key)
	if len(cands) == 0 {
		return nil, false
	}
	fctx, cancel := context.WithTimeout(ctx, r.cfg.ForwardTimeout)
	defer cancel()
	for _, p := range cands {
		if fctx.Err() != nil {
			break
		}
		start := time.Now()
		res, err := r.send(fctx, p, method, path, body, hdr)
		if err == nil {
			p.ok(time.Since(start))
			return res, true
		}
		if ctx.Err() != nil {
			return nil, false // the caller gave up; no peer is to blame
		}
		r.fail(p)
		if fctx.Err() == nil {
			r.counter("cluster.peer_errors", 1)
		}
	}
	if ctx.Err() == nil && fctx.Err() != nil {
		r.counter("cluster.forward_timeouts", 1)
	}
	return nil, false
}

// send is one forwarding attempt against peer p. A transport error, a 5xx
// or a 429 is an error.
func (r *Router) send(ctx context.Context, p *Peer, method, path string, body []byte, hdr http.Header) (*PeerResult, error) {
	req, err := http.NewRequestWithContext(ctx, method, p.id+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerResponse))
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
		return nil, fmt.Errorf("peer status %d", resp.StatusCode)
	}
	return &PeerResult{Status: resp.StatusCode, Body: b, Peer: p.id}, nil
}

// AlivePeers returns the alive remote peers in id order.
func (r *Router) AlivePeers() []*Peer {
	_, peers := r.snapshot()
	ids := make([]string, 0, len(peers))
	for id, p := range peers {
		if p.alive() {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	out := make([]*Peer, len(ids))
	for i, id := range ids {
		out[i] = peers[id]
	}
	return out
}

// Client exposes the pooled forwarding client for the membership traffic
// (gossip, goodbyes, shard handoff), which sets its own deadlines.
func (r *Router) Client() *http.Client { return r.client }
