package cluster

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzGossipDigest merges an arbitrary JSON digest into a three-member
// table, as a node does with a peer's gossip. Whatever the digest says:
// self stays in the ring and outbids every departure or suspicion claim
// about it, no row's (incarnation, state rank) goes down, merging the same
// digest twice changes nothing the second time, and the table never holds
// a state outside alive, suspect and left.
func FuzzGossipDigest(f *testing.F) {
	f.Add([]byte(`[{"id":"A","inc":"18446744073709551615","state":2}]`))
	f.Add([]byte(`[{"id":"A","inc":"4","state":1},{"id":"A","inc":"5","state":2}]`))
	f.Add([]byte(`[{"id":"B","inc":"0","state":1},{"id":"C","inc":"9","state":0}]`))
	f.Add([]byte(`[{"id":"D","inc":"3","state":7},{"id":"B","inc":"2","state":-1}]`))
	f.Add([]byte(`[{"id":"D","inc":"1","state":2},{"id":"D","inc":"1","state":0}]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var digest []MemberEntry
		if json.Unmarshal(data, &digest) != nil {
			return
		}
		m := NewMembership("A", []string{"B", "C"})
		m.Suspect("C")
		before := map[string]MemberEntry{}
		for _, e := range m.Digest() {
			before[e.ID] = e
		}

		m.Merge(digest)

		alive := false
		for _, id := range m.Alive() {
			alive = alive || id == "A"
		}
		if !alive {
			t.Fatalf("self left the ring: %v", m.Alive())
		}
		after := m.Digest()
		self, _ := entryFor(after, "A")
		for _, e := range digest {
			merged := e.State == StateSuspect || e.State == StateLeft
			if e.ID == "A" && merged && e.Incarnation != math.MaxUint64 && self.Incarnation <= e.Incarnation {
				t.Fatalf("self at incarnation %d does not outbid the claim %+v", self.Incarnation, e)
			}
		}
		for _, e := range after {
			if e.State != StateAlive && e.State != StateSuspect && e.State != StateLeft {
				t.Fatalf("digest holds unknown state: %+v", e)
			}
			b, ok := before[e.ID]
			if ok && (e.Incarnation < b.Incarnation ||
				e.Incarnation == b.Incarnation && stateRank(e.State) < stateRank(b.State)) {
				t.Fatalf("row went down: %+v -> %+v", b, e)
			}
		}
		for id := range before {
			if _, ok := entryFor(after, id); !ok {
				t.Fatalf("row %s dropped by a merge", id)
			}
		}
		if m.Merge(digest) {
			t.Fatalf("second merge of the same digest reported a change: %s", data)
		}
	})
}
