package cluster

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"
)

func entryFor(d []MemberEntry, id string) (MemberEntry, bool) {
	for _, e := range d {
		if e.ID == id {
			return e, true
		}
	}
	return MemberEntry{}, false
}

func TestMembershipJoinViaMerge(t *testing.T) {
	a := NewMembership("A", nil)
	b := NewMembership("B", []string{"A"})
	if !a.Merge(b.Digest()) {
		t.Fatal("A should see B's join as a ring change")
	}
	got := a.Alive()
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("A's ring view = %v, want [A B]", got)
	}
	// Re-merging the same digest is idempotent.
	if a.Merge(b.Digest()) {
		t.Fatal("re-merging an unchanged digest must not report a ring change")
	}
}

func TestMembershipHigherIncarnationWins(t *testing.T) {
	a := NewMembership("A", nil)
	a.Merge([]MemberEntry{{ID: "B", Incarnation: 3, State: StateAlive}})
	// A stale lower-incarnation departure claim loses.
	a.Merge([]MemberEntry{{ID: "B", Incarnation: 2, State: StateLeft}})
	if got := a.Alive(); len(got) != 2 {
		t.Fatalf("stale departure must not remove B: %v", got)
	}
	// Same incarnation: Left outranks Alive.
	a.Merge([]MemberEntry{{ID: "B", Incarnation: 3, State: StateLeft}})
	if got := a.Alive(); len(got) != 1 || got[0] != "A" {
		t.Fatalf("equal-incarnation departure should remove B: %v", got)
	}
	// Alive at a higher incarnation resurrects (rejoin after leave).
	a.Merge([]MemberEntry{{ID: "B", Incarnation: 4, State: StateAlive}})
	if got := a.Alive(); len(got) != 2 {
		t.Fatalf("higher-incarnation alive should resurrect B: %v", got)
	}
}

func TestMembershipSelfRefutation(t *testing.T) {
	a := NewMembership("A", nil)
	d, _ := entryFor(a.Digest(), "A")
	// Someone gossips that A is suspect at A's current incarnation.
	if !a.Merge([]MemberEntry{{ID: "A", Incarnation: d.Incarnation, State: StateSuspect}}) {
		t.Fatal("a suspicion about self must trigger a refutation")
	}
	d2, _ := entryFor(a.Digest(), "A")
	if d2.Incarnation <= d.Incarnation {
		t.Fatalf("refutation must bump incarnation: %d -> %d", d.Incarnation, d2.Incarnation)
	}
	if d2.State != StateAlive {
		t.Fatalf("self must stay alive after refutation, got %v", d2.State)
	}
	// Even a Left claim about self is refuted — a flapping node cannot be
	// erased while it is running.
	if !a.Merge([]MemberEntry{{ID: "A", Incarnation: d2.Incarnation + 5, State: StateLeft}}) {
		t.Fatal("a departure claim about a live self must be refuted")
	}
	d3, _ := entryFor(a.Digest(), "A")
	if d3.State != StateAlive || d3.Incarnation <= d2.Incarnation+5 {
		t.Fatalf("refutation must outbid the claim: %+v", d3)
	}
}

func TestMembershipSuspicionLifecycle(t *testing.T) {
	a := NewMembership("A", []string{"B"})
	if !a.Suspect("B") {
		t.Fatal("suspecting an alive member should succeed")
	}
	if a.Suspect("B") {
		t.Fatal("suspecting twice should be a no-op")
	}
	// Suspect members remain ring members until the timeout.
	if got := a.Alive(); len(got) != 2 {
		t.Fatalf("suspects must stay in the ring: %v", got)
	}
	// A successful probe clears suspicion.
	if !a.Confirm("B") {
		t.Fatal("confirming a suspect should succeed")
	}
	if dead := a.Tick(0, 0); len(dead) != 0 {
		t.Fatalf("confirmed member must not expire: %v", dead)
	}
	// Suspect again; this time let it expire.
	a.Suspect("B")
	dead := a.Tick(0, 0)
	if len(dead) != 1 || dead[0] != "B" {
		t.Fatalf("expired suspicion should confirm death: %v", dead)
	}
	if got := a.Alive(); len(got) != 1 || got[0] != "A" {
		t.Fatalf("dead member must leave the ring: %v", got)
	}
	// Confirm on a departed member must not resurrect it.
	if a.Confirm("B") {
		t.Fatal("confirm must not resurrect a departed member")
	}
}

func TestMembershipLeaveAndTombstoneTTL(t *testing.T) {
	a := NewMembership("A", []string{"B"})
	b := NewMembership("B", []string{"A"})
	a.Merge(b.Digest())
	goodbye := b.Leave()
	if !a.Merge(goodbye) {
		t.Fatal("a goodbye digest should change A's ring view")
	}
	if got := a.Alive(); len(got) != 1 || got[0] != "A" {
		t.Fatalf("left member must be out of the ring: %v", got)
	}
	// The tombstone blocks resurrection at the same incarnation...
	gb, _ := entryFor(goodbye, "B")
	a.Merge([]MemberEntry{{ID: "B", Incarnation: gb.Incarnation, State: StateAlive}})
	if got := a.Alive(); len(got) != 1 {
		t.Fatalf("same-incarnation alive must not resurrect a tombstone: %v", got)
	}
	// ...until the TTL drops it.
	time.Sleep(2 * time.Millisecond)
	a.Tick(time.Hour, time.Millisecond)
	if _, ok := entryFor(a.Digest(), "B"); ok {
		t.Fatal("tombstone should be garbage-collected after the TTL")
	}
}

func TestMembershipDigestWireRoundTrip(t *testing.T) {
	a := NewMembership("A", []string{"B"})
	a.Suspect("B")
	a.Merge([]MemberEntry{{ID: "C", Incarnation: 1 << 60, State: StateAlive}})
	raw, err := json.Marshal(a.Digest())
	if err != nil {
		t.Fatal(err)
	}
	var back []MemberEntry
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	c, ok := entryFor(back, "C")
	if !ok || c.Incarnation != 1<<60 {
		t.Fatalf("large incarnation must round-trip exactly, got %+v", c)
	}
	bEnt, _ := entryFor(back, "B")
	if bEnt.State != StateSuspect {
		t.Fatalf("state must round-trip, got %v", bEnt.State)
	}
}

// TestMembershipConvergence gossips random pairs until every node's ring
// view matches, in the presence of one leave and one rejoin.
func TestMembershipConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ids := []string{"A", "B", "C", "D", "E"}
	nodes := make(map[string]*Membership, len(ids))
	for _, id := range ids {
		nodes[id] = NewMembership(id, []string{"A"})
	}
	gossip := func(rounds int) {
		for i := 0; i < rounds; i++ {
			x := ids[rng.Intn(len(ids))]
			y := ids[rng.Intn(len(ids))]
			if x == y {
				continue
			}
			nodes[x].Merge(nodes[y].Digest())
			nodes[y].Merge(nodes[x].Digest())
		}
	}
	gossip(200)
	for _, id := range ids {
		if got := nodes[id].Alive(); len(got) != len(ids) {
			t.Fatalf("node %s did not converge: %v", id, got)
		}
	}
	// E leaves; everyone must converge on the 4-member view.
	goodbye := nodes["E"].Leave()
	nodes["A"].Merge(goodbye)
	ids = ids[:4]
	gossip(200)
	for _, id := range ids {
		if got := nodes[id].Alive(); len(got) != 4 {
			t.Fatalf("node %s did not see E leave: %v", id, got)
		}
	}
	// E rejoins with a fresh table; its self-refutation outbids the
	// tombstone once it hears the old gossip.
	nodes["E"] = NewMembership("E", []string{"A"})
	nodes["E"].Merge(nodes["A"].Digest())
	nodes["A"].Merge(nodes["E"].Digest())
	ids = append(ids, "E")
	gossip(200)
	for _, id := range ids {
		if got := nodes[id].Alive(); len(got) != 5 {
			t.Fatalf("node %s did not see E rejoin: %v", id, got)
		}
	}
}

// TestMembershipMergeIgnoresMaxIncarnation: a row at the largest
// incarnation cannot be outbid, so Merge ignores it. A departure claim
// about self at that incarnation used to wrap self's incarnation to 0.
func TestMembershipMergeIgnoresMaxIncarnation(t *testing.T) {
	a := NewMembership("A", nil)
	if a.Merge([]MemberEntry{
		{ID: "A", Incarnation: math.MaxUint64, State: StateLeft},
		{ID: "B", Incarnation: math.MaxUint64, State: StateAlive},
	}) {
		t.Fatal("merging rows at the largest incarnation reported a change")
	}
	d := a.Digest()
	if self, _ := entryFor(d, "A"); self.Incarnation != 1 || self.State != StateAlive {
		t.Fatalf("self row = %+v, want alive at incarnation 1", self)
	}
	if _, ok := entryFor(d, "B"); ok {
		t.Fatalf("B stored from a row at the largest incarnation: %+v", d)
	}
	// Self still refutes an ordinary claim.
	if !a.Merge([]MemberEntry{{ID: "A", Incarnation: 5, State: StateSuspect}}) {
		t.Fatal("a suspicion about self must still be refuted")
	}
	if self, _ := entryFor(a.Digest(), "A"); self.Incarnation <= 5 {
		t.Fatalf("refutation must outbid the claim: %+v", self)
	}
}

// TestMembershipMergeIgnoresUnknownState: a row whose state is not alive,
// suspect or left is malformed; Merge must neither store it nor put its
// member in the ring.
func TestMembershipMergeIgnoresUnknownState(t *testing.T) {
	a := NewMembership("A", []string{"B"})
	if a.Merge([]MemberEntry{
		{ID: "C", Incarnation: 1, State: 7},
		{ID: "B", Incarnation: 2, State: -1},
		{ID: "A", Incarnation: 3, State: 7},
	}) {
		t.Fatal("merging unknown states reported a change")
	}
	if got := a.Alive(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("ring = %v, want [A B]", got)
	}
	for _, e := range a.Digest() {
		if e.State != StateAlive || e.Incarnation > 1 {
			t.Errorf("row %+v changed by an unknown state", e)
		}
	}
}
