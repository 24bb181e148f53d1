package dtse

// Dynamic cluster membership and shard handoff.
//
// PR 9's ring was frozen at startup (-peers). Here the member set is a
// SWIM-lite table (internal/cluster.Membership) and gossip is its only
// exchange: the table starts from the configured peers, every node gossips
// its full digest to each member every interval over POST
// /v1/internal/gossip, and the answering digest teaches it the members it
// did not know — so a node joins a live ring by naming any one reachable
// member. An unreachable member is suspected and only removed after a
// suspicion timeout, and incarnation numbers let a live member refute stale
// claims about itself — a flapping node cannot be erased by one dropped
// probe.
//
// On any ring change the node re-derives ownership and runs shard handoff:
// for every cached record whose route fingerprint this node owned under the
// old ring but not the new one, it streams the record to the new owner over
// POST /v1/internal/handoff. The receiver gates every import on its own live
// ring — it only accepts keys it owns right now — so a racing topology
// change degrades to a dropped warm-up, never a mis-sharded cache. The
// gossip exchange doubles as the health prober: a reachable member revives
// its Router ejection state (PeerOK), an unreachable one feeds it
// (PeerFail). An ejected peer gets no forwards, so a gossip round is the
// only way it rejoins the ring walk.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/memo"
)

// digestWire is the gossip exchange body in both directions: the sender's
// identity plus its full membership digest.
type digestWire struct {
	From   string                `json:"from"`
	Digest []cluster.MemberEntry `json:"digest"`
}

// maxDigestBody bounds a membership digest read (thousands of members fit).
const maxDigestBody = 1 << 20

// handleClusterGossip is one push-pull gossip round: merge the caller's
// digest, answer with ours. A node that has just joined learns the rest of
// the member set from the answer; the others learn about it from gossip.
func (s *Server) handleClusterGossip(w http.ResponseWriter, r *http.Request) {
	cs := s.cluster
	if cs == nil {
		http.NotFound(w, r)
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var in digestWire
	dec := json.NewDecoder(io.LimitReader(r.Body, maxDigestBody))
	err := dec.Decode(&in)
	if err == nil && !atEnd(dec) {
		err = errors.New("trailing data after the JSON object")
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid digest body: "+err.Error())
		return
	}
	if cs.members.Merge(in.Digest) {
		s.syncMembership()
	}
	// A digest from a member is proof of life, whatever the table said.
	if in.From != "" && in.From != cs.router.Self() {
		cs.members.Confirm(in.From)
	}
	body := mustMarshal(digestWire{From: cs.router.Self(), Digest: cs.members.Digest()})
	s.writeResponse(w, &servedResponse{status: http.StatusOK, body: append(body, '\n')})
}

// exchangeDigest POSTs our digest to one member's gossip endpoint and
// returns its digest.
func (s *Server) exchangeDigest(ctx context.Context, member string) ([]cluster.MemberEntry, error) {
	cs := s.cluster
	body := mustMarshal(digestWire{From: cs.router.Self(), Digest: cs.members.Digest()})
	rctx, cancel := context.WithTimeout(ctx, gossipRequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, member+"/v1/internal/gossip", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header = internalHeaders("")
	resp, err := cs.router.Client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxDigestBody))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", member, resp.StatusCode)
	}
	var out digestWire
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	return out.Digest, nil
}

// gossipLoop is the membership heartbeat: each tick, exchange digests with
// every other ring member (suspects included — that is their chance to
// refute), feed the outcome to both the membership table and the Router's
// ejection state, then expire suspicions that outlived the timeout. Small
// clusters gossip with everyone; the per-tick fanout is fine below
// O(hundreds) of members.
func (s *Server) gossipLoop() {
	cs := s.cluster
	tick := time.NewTicker(cs.gossipEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-tick.C:
		}
		for _, m := range cs.members.Alive() {
			if m == cs.router.Self() {
				continue
			}
			start := time.Now()
			digest, err := s.exchangeDigest(s.baseCtx, m)
			if err != nil {
				if s.baseCtx.Err() != nil {
					return
				}
				s.obs.Counter("cluster.gossip_failed").Add(1)
				cs.router.PeerFail(m)
				if cs.members.Suspect(m) {
					s.obs.Counter("cluster.suspected").Add(1)
				}
				continue
			}
			s.obs.Counter("cluster.gossip_rounds").Add(1)
			cs.router.PeerOK(m, time.Since(start))
			cs.members.Confirm(m)
			if cs.members.Merge(digest) {
				s.syncMembership()
			}
		}
		if dead := cs.members.Tick(cs.suspectFor, tombstoneTTLPerSuspicion*cs.suspectFor); len(dead) > 0 {
			s.obs.Counter("cluster.deaths").Add(int64(len(dead)))
			s.syncMembership()
		}
	}
}

// syncMembership aligns the ring with the membership table and, when
// ownership moved, launches shard handoff for the keys this node stopped
// owning. Serialized by topoMu so concurrent digests cannot interleave
// ring swaps and handoffs out of order.
func (s *Server) syncMembership() {
	cs := s.cluster
	cs.topoMu.Lock()
	defer cs.topoMu.Unlock()
	oldRing := cs.router.Ring()
	added, removed := cs.router.SetMembers(cs.members.Alive())
	if len(added) == 0 && len(removed) == 0 {
		return
	}
	newRing := cs.router.Ring()
	s.obs.Counter("cluster.member_joins").Add(int64(len(added)))
	s.obs.Counter("cluster.member_leaves").Add(int64(len(removed)))
	s.obs.Counter("cluster.ring_changes").Add(1)
	cs.handoffs.Add(1)
	go func() {
		defer cs.handoffs.Done()
		s.runHandoff(oldRing, newRing)
	}()
}

// --- shard handoff ---

// handoffRec is one cached record on the wire: the key as hex (its word is
// the ring fingerprint the receiver gates on), the value as base64.
type handoffRec struct {
	Key memo.Key `json:"key"`
	Val []byte   `json:"val"`
}

// handoffWire is the POST /v1/internal/handoff body: the records one
// departing/demoted owner streams to one new owner.
type handoffWire struct {
	From    string       `json:"from"`
	Records []handoffRec `json:"records,omitempty"`
}

// maxHandoffBody bounds a handoff read on the receiving side.
const maxHandoffBody = 256 << 20

// runHandoff streams every cached record whose route fingerprint this node
// owned under old but does not own under new to the key's new owner. Purely
// best-effort warm-up: a failed stream costs the receiver cache misses,
// never correctness.
func (s *Server) runHandoff(old, next *cluster.Ring) {
	self := s.cluster.router.Self()
	moved := func(key uint64) (string, bool) {
		if old.Owner(key) != self {
			return "", false // never ours: its owner streams it, not us
		}
		if o := next.Owner(key); o != self {
			return o, true
		}
		return "", false
	}
	byTarget := make(map[string]*handoffWire)
	wireFor := func(target string) *handoffWire {
		w := byTarget[target]
		if w == nil {
			w = &handoffWire{From: self}
			byTarget[target] = w
		}
		return w
	}
	// Cached responses: from the disk tier when there is one (the durable
	// superset), else from the memory tier.
	if s.opts.Disk != nil {
		s.opts.Disk.Range(memo.Requests, func(key memo.Key, val []byte) bool {
			target, ok := moved(key.Word())
			if !ok {
				return true
			}
			w := wireFor(target)
			w.Records = append(w.Records, handoffRec{Key: key, Val: append([]byte(nil), val...)})
			return true
		})
	} else if s.memo != nil {
		s.memo.Range(memo.Requests, func(key memo.Key, val any) bool {
			target, ok := moved(key.Word())
			if !ok {
				return true
			}
			enc, ok := encodeServed(val)
			if !ok {
				return true
			}
			w := wireFor(target)
			w.Records = append(w.Records, handoffRec{Key: key, Val: enc})
			return true
		})
	}
	for target, wire := range byTarget {
		s.sendHandoff(target, wire)
	}
}

// sendHandoff ships one new owner's records. Best-effort with one retry
// after a short pause, so a transient refusal (a dropped connection, a
// receiver briefly overloaded) does not cost the whole stream.
func (s *Server) sendHandoff(target string, wire *handoffWire) {
	body := mustMarshal(wire)
	for attempt := 0; attempt < 2; attempt++ {
		ctx, cancel := context.WithTimeout(s.baseCtx, handoffRequestTimeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/v1/internal/handoff", bytes.NewReader(body))
		if err != nil {
			cancel()
			break
		}
		req.Header = internalHeaders("")
		resp, err := s.cluster.router.Client().Do(req)
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			cancel()
			if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNoContent {
				s.obs.Counter("cluster.handoff_sent").Add(1)
				return
			}
		} else {
			cancel()
		}
		if s.baseCtx.Err() != nil {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	s.obs.Counter("cluster.handoff_failed").Add(1)
}

// handleHandoff imports a departing owner's records. Every key is gated on
// the live ring — only keys this node owns right now are accepted — so a
// stale or misdirected stream cannot pollute the wrong shard. Records go
// to the disk tier when there is one (misses promote them to memory on
// first touch, counted as disk hits), else straight into the memory tier.
func (s *Server) handleHandoff(w http.ResponseWriter, r *http.Request) {
	cs := s.cluster
	if cs == nil {
		http.NotFound(w, r)
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var wire handoffWire
	dec := json.NewDecoder(io.LimitReader(r.Body, maxHandoffBody))
	err := dec.Decode(&wire)
	if err == nil && !atEnd(dec) {
		err = errors.New("trailing data after the handoff object")
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid handoff body: "+err.Error())
		return
	}
	var entries, refused int64
	for _, rec := range wire.Records {
		if !cs.router.Owns(rec.Key.Word()) {
			refused++
			continue
		}
		imported := false
		if s.opts.Disk != nil {
			imported = s.opts.Disk.Import(memo.Requests, rec.Key, rec.Val)
		} else if s.memo != nil {
			if v, ok := decodeServed(rec.Val); ok {
				imported = s.memo.Seed(memo.Requests, rec.Key, v)
			}
		}
		if imported {
			entries++
		}
	}
	s.obs.Counter("cluster.handoff_received").Add(1)
	s.obs.Counter("cluster.handoff_entries").Add(entries)
	if refused > 0 {
		s.obs.Counter("cluster.handoff_refused").Add(refused)
	}
	w.WriteHeader(http.StatusNoContent)
	s.countStatus(http.StatusNoContent)
}

// LeaveCluster announces a graceful departure and hands this node's shard
// to the survivors: bump our incarnation to Left, push the goodbye digest
// to every alive peer (so ownership moves before we stop serving), then
// stream every owned record to its new owner and wait for the streams.
// Call before BeginDrain, so requests arriving during the announcement
// window still get served here while peers re-route.
func (s *Server) LeaveCluster(ctx context.Context) error {
	cs := s.cluster
	if cs == nil {
		return errors.New("cluster: not joined")
	}
	// After Leave our digest is the goodbye: one gossip exchange per peer
	// delivers it.
	cs.members.Leave()
	announced := 0
	for _, p := range cs.router.AlivePeers() {
		if _, err := s.exchangeDigest(ctx, p.ID()); err == nil {
			announced++
		}
	}
	s.obs.Counter("cluster.leaves").Add(1)
	// Hand the shard over: old ring includes self, new ring is the
	// survivors. Skipped when no peer heard the goodbye — with nobody to
	// own the keys, streaming them would only be refused.
	if announced > 0 {
		oldRing := cs.router.Ring()
		survivors := make([]string, 0, len(oldRing.Members()))
		for _, m := range oldRing.Members() {
			if m != cs.router.Self() {
				survivors = append(survivors, m)
			}
		}
		if len(survivors) > 0 {
			s.runHandoff(oldRing, cluster.NewRing(survivors))
		}
	}
	cs.handoffs.Wait()
	return nil
}
