// Package cluster implements the multi-node serving layer: a consistent-hash
// ring that shards request keys across dtsed nodes, a router that forwards
// requests to their ring owner with failover under one deadline and
// health-gated peer ejection, and SWIM-style membership with shard handoff.
// An ejected peer gets no forwards; the membership gossip round that next
// reaches it (Router.PeerOK) is what puts it back into the ring walk.
//
// The ring hashes with memo.Fingerprint64, the session cache's canonical
// key fingerprint, so a key's ring owner is also the node whose session and
// disk cache stay hot for that key.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/memo"
)

// ringVnodes is the virtual-node count per member: enough that a 3-node
// ring splits the key space within a few percent of evenly, cheap enough
// that ring construction stays trivial.
const ringVnodes = 128

// mix64 is a 64-bit avalanche finalizer (the MurmurHash3 fmix64 constants)
// applied to every ring position. FNV-1a mixes its high bits weakly on
// short inputs — vnode labels like "host#7" — and ring arithmetic compares
// full 64-bit positions, so without the finalizer arc lengths skew badly.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Ring is an immutable consistent-hash ring over a fixed member set.
// Membership is fixed at construction (dtsed clusters are configured, not
// discovered); liveness changes are layered on top by the Router, which
// skips ejected members during the ring walk.
type Ring struct {
	members []string // sorted unique
	vnodes  []vnode  // sorted by hash
}

type vnode struct {
	hash   uint64
	member int // index into members
}

// NewRing builds a ring over the given members (duplicates collapsed,
// order irrelevant: two nodes constructing a ring from the same set in any
// order agree on every owner).
func NewRing(members []string) *Ring {
	set := make(map[string]bool, len(members))
	var uniq []string
	for _, m := range members {
		if m != "" && !set[m] {
			set[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq}
	for mi, m := range uniq {
		for v := 0; v < ringVnodes; v++ {
			r.vnodes = append(r.vnodes, vnode{
				hash:   mix64(memo.Fingerprint64(fmt.Sprintf("%s#%d", m, v))),
				member: mi,
			})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool {
		a, b := r.vnodes[i], r.vnodes[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.member < b.member // total order even on (vanishing) hash ties
	})
	return r
}

// Members returns the sorted member set.
func (r *Ring) Members() []string { return r.members }

// Owner returns the member owning key: the first vnode clockwise from the
// key's hash position.
func (r *Ring) Owner(key uint64) string {
	if len(r.vnodes) == 0 {
		return ""
	}
	pos := mix64(key)
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= pos })
	if i == len(r.vnodes) {
		i = 0
	}
	return r.members[r.vnodes[i].member]
}

// Walk returns every member in ring order starting at key's owner: the
// owner first, then each distinct member in the order their vnodes appear
// clockwise. This is the failover preference order — when the owner
// is down, the next member in the walk inherits the key, on every node
// that shares the ring.
func (r *Ring) Walk(key uint64) []string {
	if len(r.vnodes) == 0 {
		return nil
	}
	pos := mix64(key)
	start := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= pos })
	if start == len(r.vnodes) {
		start = 0
	}
	seen := make([]bool, len(r.members))
	out := make([]string, 0, len(r.members))
	for i := 0; i < len(r.vnodes) && len(out) < len(r.members); i++ {
		v := r.vnodes[(start+i)%len(r.vnodes)]
		if !seen[v.member] {
			seen[v.member] = true
			out = append(out, r.members[v.member])
		}
	}
	return out
}
