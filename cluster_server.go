package dtse

// Cluster mode: scale-out serving over a consistent-hash ring. Every node
// runs the same code with the same member list; any node accepts any
// request. A request whose canonical fingerprint hashes to a peer is
// forwarded there (with hedged retries down the ring walk, see
// internal/cluster), so each node's session cache and disk tier stay hot for
// its shard of the keyspace. When the owner is down or slow the request
// falls through to the next ring member, and when no peer can answer the
// receiving node serves it locally — a dead cluster degrades to N
// independent single nodes, never to failed requests.
//
// Node-to-node requests are marked internal by header and are never
// re-forwarded, so no request loops are possible. Determinism: every node
// runs the same exploration code, so a completed search's body is
// byte-identical whichever node computes it, at any node count.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/memo"
)

// clusterInternalHeader marks node-to-node requests. A request carrying it
// is served locally no matter who owns the key — forwarding is one hop,
// never a loop — and its X-Trace-Id is adopted so a routed request is one
// trace end to end.
const clusterInternalHeader = "X-Dtse-Internal"

// ClusterOptions configures JoinCluster.
type ClusterOptions struct {
	// Self is this node's advertised base URL (scheme://host:port); peers
	// must be able to reach it.
	Self string
	// Peers are the other members' base URLs. Every node must be
	// configured with the same member set (self ∪ peers), or the ring
	// views disagree and requests bounce (correct — internal requests are
	// served where they land — but wasteful).
	Peers []string
	// HedgeDelay is the hedge floor: a forwarded request slower than
	// max(HedgeDelay, peer p99) gets a hedge against the next ring node.
	// 0 means the internal/cluster default (50ms).
	HedgeDelay time.Duration
	// EjectAfter consecutive peer failures eject it from the ring walk
	// for EjectFor; zero values use the internal/cluster defaults.
	EjectAfter int
	EjectFor   time.Duration
	// Seeds are member URLs to contact via /v1/internal/join after the
	// listener is up (JoinSeeds). Unlike Peers they need not be the full
	// member set — the handshake returns the seed's membership digest and
	// gossip converges the rest. A node may start with no Peers and only
	// Seeds.
	Seeds []string
	// GossipInterval is the membership gossip/probe period. 0 means
	// defaultGossipInterval; negative disables the loop (membership then
	// only changes via explicit join/leave handshakes — mostly for tests).
	GossipInterval time.Duration
	// SuspicionTimeout is how long a member stays suspect (unreachable by
	// gossip) before it is confirmed dead and removed from the ring. 0
	// means defaultSuspicionTimeout.
	SuspicionTimeout time.Duration
}

const (
	defaultGossipInterval    = time.Second
	defaultSuspicionTimeout  = 10 * time.Second
	gossipRequestTimeout     = 2 * time.Second
	handoffRequestTimeout    = 30 * time.Second
	tombstoneTTLPerSuspicion = 30 // tombstone TTL = 30 × suspicion timeout
)

// clusterState is the per-server cluster runtime.
type clusterState struct {
	router *cluster.Router

	// Dynamic membership: the SWIM-lite table feeding the ring, and the
	// mutex serializing ring swaps + handoff launches against each other.
	members     *cluster.Membership
	gossipEvery time.Duration // <0: loop disabled
	suspectFor  time.Duration
	topoMu      sync.Mutex
	handoffs    sync.WaitGroup // in-flight outbound handoff streams
}

// JoinCluster puts the server in cluster mode. Call once, after NewServer
// and before serving traffic.
func (s *Server) JoinCluster(opts ClusterOptions) error {
	if s.cluster != nil {
		return errors.New("cluster: already joined")
	}
	router, err := cluster.New(cluster.Config{
		Self:       opts.Self,
		Peers:      opts.Peers,
		HedgeDelay: opts.HedgeDelay,
		EjectAfter: opts.EjectAfter,
		EjectFor:   opts.EjectFor,
		Obs:        s.obs,
	})
	if err != nil {
		return err
	}
	cs := &clusterState{router: router}
	// Membership starts as the static config (Peers ∪ Seeds) and evolves
	// from there via join handshakes, gossip digests, and suspicion expiry.
	cs.members = cluster.NewMembership(opts.Self, append(append([]string{}, opts.Peers...), opts.Seeds...))
	cs.gossipEvery = opts.GossipInterval
	if cs.gossipEvery == 0 {
		cs.gossipEvery = defaultGossipInterval
	}
	cs.suspectFor = opts.SuspicionTimeout
	if cs.suspectFor <= 0 {
		cs.suspectFor = defaultSuspicionTimeout
	}
	s.cluster = cs
	// Align the ring with the initial membership view (Peers ∪ Seeds): a
	// seed is a member we trust to exist before the first handshake.
	router.SetMembers(cs.members.Alive())
	if cs.gossipEvery > 0 {
		go s.gossipLoop()
	}
	return nil
}

// routeKey is the consistent-hash routing fingerprint. Spec requests hash
// the canonical spec JSON alone — not the full dedup key — so budget and
// knob variants of one spec co-locate on one node. Demo requests have no
// canon and hash the dedup key.
func routeKey(p *parsedRequest) uint64 {
	if p.mode == "spec" {
		return memo.Fingerprint64(p.canon)
	}
	return memo.Fingerprint64(p.key)
}

// internalHeaders builds the header set for one forwarded request.
func internalHeaders(tid string) http.Header {
	h := make(http.Header, 3)
	h.Set("Content-Type", "application/json")
	h.Set(clusterInternalHeader, "1")
	if tid != "" {
		h.Set("X-Trace-Id", tid)
	}
	return h
}

// isInternal reports whether the request came from a cluster peer.
func isInternal(r *http.Request) bool { return r.Header.Get(clusterInternalHeader) != "" }

// routeExplore forwards the request to its ring owner when that is a live
// peer. served=false means the caller runs it locally: we own the key, or
// no peer could answer (fallback).
func (s *Server) routeExplore(ctx context.Context, p *parsedRequest, raw []byte, tid string) (resp *servedResponse, served bool) {
	cs := s.cluster
	key := routeKey(p)
	if cs.router.Owns(key) {
		s.obs.Counter("cluster.local").Add(1)
		return nil, false
	}
	start := time.Now()
	sp := s.obs.Start("serve.forward")
	sp.SetStr("trace_id", tid)
	fctx := ctx
	if d := s.effectiveTimeout(p.req.TimeoutMS); d > 0 {
		// Give the peer its full deadline plus slack for the hop; the peer
		// applies the real deadline itself and answers anytime-best-effort.
		var cancel context.CancelFunc
		fctx, cancel = context.WithTimeout(ctx, d+5*time.Second)
		defer cancel()
	}
	res, ok := cs.router.Forward(fctx, key, http.MethodPost, "/v1/explore", raw, internalHeaders(tid))
	if !ok {
		sp.SetStr("outcome", "fallback_local")
		sp.End()
		s.obs.Counter("cluster.fallback_local").Add(1)
		return nil, false
	}
	sp.SetStr("peer", res.Peer)
	if res.Hedged {
		sp.SetInt("hedged", 1)
	}
	sp.SetInt("status", int64(res.Status))
	sp.End()
	s.obs.Counter("cluster.routed").Add(1)
	if s.flight != nil {
		dur := time.Since(start)
		reason := ""
		switch {
		case res.Status >= 400:
			reason = "error"
		case s.opts.SlowRequest > 0 && dur >= s.opts.SlowRequest:
			reason = "slow"
		}
		if reason != "" {
			s.flight.add(&FlightEntry{
				TraceID:    tid,
				Start:      start,
				Reason:     reason,
				Status:     res.Status,
				DurationMS: float64(dur.Microseconds()) / 1e3,
				Mode:       p.mode,
				Label:      p.label,
				Peer:       res.Peer,
			})
		}
	}
	return &servedResponse{status: res.Status, body: res.Body}, true
}

// planBatch groups a batch's items by preferred remote owner. Items this
// node owns (or whose owners are all down) stay local and are not in the
// map.
func (s *Server) planBatch(parsed []*parsedRequest, errs []error) map[string][]int {
	var remote map[string][]int
	for i, p := range parsed {
		if errs[i] != nil || p == nil {
			continue
		}
		key := routeKey(p)
		if s.cluster.router.Owns(key) {
			continue
		}
		owner, ok := s.cluster.router.PreferredPeer(key)
		if !ok {
			continue
		}
		if remote == nil {
			remote = make(map[string][]int)
		}
		remote[owner] = append(remote[owner], i)
	}
	return remote
}

// forwardBatchGroup sends one owner's items as a sub-batch. On any failure
// it leaves the items' results nil — the caller's second local pass picks
// them up, so a mid-batch peer death costs latency, never failed items.
func (s *Server) forwardBatchGroup(ctx context.Context, peerID string, idxs []int,
	items []json.RawMessage, subTid string, results []*servedResponse, tids []string) {
	sub := batchRequest{Items: make([]json.RawMessage, len(idxs))}
	for j, i := range idxs {
		sub.Items[j] = items[i]
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return
	}
	res, ok := s.cluster.router.ForwardAny(ctx, peerID, http.MethodPost, "/v1/explore/batch", body, internalHeaders(subTid))
	if !ok || res.Status != http.StatusOK {
		s.obs.Counter("cluster.fallback_local").Add(1)
		return
	}
	var env batchResponse
	if json.Unmarshal(res.Body, &env) != nil || len(env.Items) != len(idxs) {
		s.obs.Counter("cluster.fallback_local").Add(1)
		return
	}
	s.obs.Counter("cluster.routed").Add(1)
	s.obs.Counter("cluster.routed_items").Add(int64(len(idxs)))
	for j, i := range idxs {
		it := env.Items[j]
		b := append([]byte(nil), it.Body...)
		results[i] = &servedResponse{status: it.Status, body: append(b, '\n'), degraded: it.Degraded}
		tids[i] = it.TraceID
	}
}
