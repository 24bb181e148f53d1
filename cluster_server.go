package dtse

// Cluster mode: scale-out serving over a consistent-hash ring. Every node
// runs the same code, and gossip converges them on one member list (see
// cluster_membership.go); any node accepts any request. The items of a request — one for a single POST, up to 64 for a
// batch — are grouped by the peer their canonical fingerprints hash to,
// and each group goes to its peer as one internal sub-batch (failing over
// down the ring walk of the group's first key, see internal/cluster), so
// each node's session cache and disk tier stay hot for its shard of the
// keyspace. When the owner fails the group falls through to the next ring
// member, and when no peer answers within the forward deadline the
// receiving node computes the items itself — a dead or hung cluster
// degrades to N independent single nodes, never to failed requests.
//
// Node-to-node requests are marked internal by header, are never
// re-forwarded (no request loops are possible) and are never admitted (the
// origin's slot accounts for them). Determinism: every node runs the same
// exploration code, so a completed search's body is byte-identical
// whichever node computes it, at any node count.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
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
	// Peers are the members this node starts from. Any reachable one is
	// enough: the first gossip round with it returns its membership
	// digest, and gossip supplies the rest of the member set.
	Peers []string
	// HedgeDelay is how long a forward waits before the items run
	// locally; 0 = 2 s. The attempt it cuts off counts as a failure of
	// the peer it waited on.
	HedgeDelay time.Duration
	// GossipInterval is the membership gossip period; ≤ 0 means
	// defaultGossipInterval. The loop always runs: its rounds are also
	// what readmits a peer that failed forwards and was ejected.
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
	gossipEvery time.Duration
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
		Self:           opts.Self,
		ForwardTimeout: opts.HedgeDelay,
		Obs:            s.obs,
	})
	if err != nil {
		return err
	}
	cs := &clusterState{router: router}
	// Membership starts from Peers and evolves from there via gossip
	// digests and suspicion expiry.
	cs.members = cluster.NewMembership(opts.Self, opts.Peers)
	cs.gossipEvery = opts.GossipInterval
	if cs.gossipEvery <= 0 {
		cs.gossipEvery = defaultGossipInterval
	}
	cs.suspectFor = opts.SuspicionTimeout
	if cs.suspectFor <= 0 {
		cs.suspectFor = defaultSuspicionTimeout
	}
	s.cluster = cs
	// The membership table is the ring's one source of members: a peer is
	// trusted to exist before the first gossip round reaches it.
	router.SetMembers(cs.members.Alive())
	go s.gossipLoop()
	return nil
}

// routeKey is the consistent-hash routing fingerprint, the word of the
// request's dedup key (see parseExplore): spec requests route by their
// canonical spec JSON alone, so budget and knob variants of one spec
// land on one node (placement only: each explores from scratch); demo
// requests by the whole dedup key.
func routeKey(p *parsedRequest) uint64 { return p.key.Word() }

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

// batchGroup is one peer's share of a request: the items it owns.
type batchGroup struct {
	owner string
	idxs  []int
}

// planBatch groups a request's parsed items by preferred remote owner, in
// owner order, and marks them remote. The items this node owns stay local
// and count cluster.local.
func (s *Server) planBatch(items []exploreItem) []batchGroup {
	var groups []batchGroup
	for i := range items {
		it := &items[i]
		if it.p == nil {
			continue
		}
		owner, remote := s.cluster.router.PreferredPeer(routeKey(it.p))
		if !remote {
			s.obs.Counter("cluster.local").Add(1)
			continue
		}
		it.remote = true
		g, found := slices.BinarySearchFunc(groups, owner, func(g batchGroup, o string) int { return strings.Compare(g.owner, o) })
		if !found {
			groups = slices.Insert(groups, g, batchGroup{owner: owner})
		}
		groups[g].idxs = append(groups[g].idxs, i)
	}
	return groups
}

// forwardBatchGroup sends one owner's items as a sub-batch down the ring
// walk of its first item's key (Router.Forward fails over to the next
// member), under a serve.forward span named by the group's trace id.
// Forwarded items that errored, degraded or ran slow go to the flight
// recorder with the peer that answered. On any failure or an expired
// forward deadline the items stay unanswered and serveItems recomputes
// them locally, so a mid-request peer death or hang costs latency, never
// failed items.
func (s *Server) forwardBatchGroup(ctx context.Context, g batchGroup, gtid string, items []exploreItem) {
	start := time.Now()
	sp := s.obs.Start("serve.forward")
	sp.SetStr("trace_id", gtid)
	defer sp.End()
	sub := batchRequest{Items: make([]json.RawMessage, len(g.idxs))}
	for j, i := range g.idxs {
		sub.Items[j] = items[i].raw
	}
	var res *cluster.PeerResult
	ok := false
	if body, err := json.Marshal(sub); err == nil {
		res, ok = s.cluster.router.Forward(ctx, routeKey(items[g.idxs[0]].p),
			http.MethodPost, "/v1/explore/batch", body, internalHeaders(gtid))
	}
	var env batchResponse
	if !ok || res.Status != http.StatusOK || json.Unmarshal(res.Body, &env) != nil || len(env.Items) != len(g.idxs) {
		sp.SetStr("outcome", "fallback_local")
		s.obs.Counter("cluster.fallback_local").Add(1)
		return
	}
	sp.SetStr("peer", res.Peer)
	sp.SetInt("status", int64(res.Status))
	s.obs.Counter("cluster.routed").Add(1)
	s.obs.Counter("cluster.routed_items").Add(int64(len(g.idxs)))
	for j, i := range g.idxs {
		pit, it := env.Items[j], &items[i]
		it.tid = pit.TraceID
		it.resp = &servedResponse{status: pit.Status, body: append(append([]byte(nil), pit.Body...), '\n'), degraded: pit.Degraded}
		if e := s.flightEntry(it.tid, it.p, it.resp, start); e != nil {
			e.Peer = res.Peer
			s.flight.add(e)
		}
	}
}
