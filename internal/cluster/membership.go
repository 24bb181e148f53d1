package cluster

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Membership state machine, SWIM-flavoured: every member carries an
// incarnation number and a state (alive / suspect / left), digests of the
// full table piggyback on gossip exchanges, and conflicting claims resolve
// by incarnation first, then by state precedence. A member suspected of
// being down is only removed after a suspicion timeout — and a live member
// that sees itself suspected refutes by bumping its own incarnation, so a
// flapping node cannot be erased by one stale digest.

// MemberState is a member's lifecycle state in the digest.
type MemberState int

const (
	// StateAlive members are in the ring.
	StateAlive MemberState = iota
	// StateSuspect members are still in the ring (ownership must not flap
	// on one missed probe) but are on a removal timer.
	StateSuspect
	// StateLeft members are out of the ring; the tombstone is kept for a
	// while so late digests cannot resurrect them at the same incarnation.
	StateLeft
)

func (s MemberState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateLeft:
		return "left"
	default:
		return "state(" + strconv.Itoa(int(s)) + ")"
	}
}

// MemberEntry is one row of the membership digest as gossiped on the wire.
// Incarnation is serialized as a string so a uint64 above 2^53 survives
// JSON number handling in non-Go readers.
type MemberEntry struct {
	ID          string      `json:"id"`
	Incarnation uint64      `json:"inc,string"`
	State       MemberState `json:"state"`
}

type memberRow struct {
	inc     uint64
	state   MemberState
	changed time.Time // when the row last transitioned (suspicion/tombstone clock)
}

// Membership is one node's view of the cluster member table.
type Membership struct {
	self string

	mu   sync.Mutex
	rows map[string]*memberRow
}

// NewMembership builds a table containing self (alive, incarnation 1) and
// the peers it starts from (alive, incarnation 0 — a real digest from them
// wins immediately).
func NewMembership(self string, peers []string) *Membership {
	m := &Membership{
		self: self,
		rows: map[string]*memberRow{
			self: {inc: 1, state: StateAlive, changed: time.Now()},
		},
	}
	for _, p := range peers {
		if p == "" || p == self {
			continue
		}
		m.rows[p] = &memberRow{inc: 0, state: StateAlive, changed: time.Now()}
	}
	return m
}

// Self returns this node's member URL.
func (m *Membership) Self() string { return m.self }

// Digest returns the full table sorted by id — the gossip payload.
func (m *Membership) Digest() []MemberEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemberEntry, 0, len(m.rows))
	for id, r := range m.rows {
		out = append(out, MemberEntry{ID: id, Incarnation: r.inc, State: r.state})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Alive returns the members currently in the ring (alive or suspect),
// sorted. Suspects stay in the ring: the health layer already routes
// around them, and removal waits for the suspicion timeout so one dropped
// gossip round cannot reshuffle ownership.
func (m *Membership) Alive() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.rows))
	for id, r := range m.rows {
		if r.state != StateLeft {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// stateRank orders states for equal-incarnation conflicts: a departure
// claim beats a suspicion beats liveness. (Alive at a *higher* incarnation
// beats everything — that is the refutation path.)
func stateRank(s MemberState) int {
	switch s {
	case StateLeft:
		return 2
	case StateSuspect:
		return 1
	default:
		return 0
	}
}

// Merge folds a remote digest into the table. Returns true when the set of
// ring members (or self's incarnation) changed in a way the caller should
// react to — rebuild the ring, kick handoff, re-gossip.
func (m *Membership) Merge(entries []MemberEntry) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	changed := false
	now := time.Now()
	for _, e := range entries {
		// Malformed rows are ignored: an empty id, a state outside alive,
		// suspect and left, or an incarnation nobody could outbid (self's
		// refutation would wrap it to 0).
		if e.ID == "" || e.State < StateAlive || e.State > StateLeft || e.Incarnation == math.MaxUint64 {
			continue
		}
		if e.ID == m.self {
			// Refutation: if anyone claims we are suspect or gone, outbid
			// them. Our own row is the one row only we may advance.
			r := m.rows[m.self]
			if e.State != StateAlive && e.Incarnation >= r.inc {
				r.inc = e.Incarnation + 1
				r.changed = now
				changed = true
			}
			continue
		}
		r, ok := m.rows[e.ID]
		if !ok {
			m.rows[e.ID] = &memberRow{inc: e.Incarnation, state: e.State, changed: now}
			if e.State != StateLeft {
				changed = true
			}
			continue
		}
		if e.Incarnation < r.inc {
			continue
		}
		if e.Incarnation == r.inc && stateRank(e.State) <= stateRank(r.state) {
			continue
		}
		inRing := r.state != StateLeft
		r.inc = e.Incarnation
		r.state = e.State
		r.changed = now
		if (e.State != StateLeft) != inRing {
			changed = true
		}
	}
	return changed
}

// Suspect marks id as suspect at its current incarnation (a failed probe).
// No-op for unknown, already-suspect, or departed members; never self.
func (m *Membership) Suspect(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id == m.self {
		return false
	}
	r, ok := m.rows[id]
	if !ok || r.state != StateAlive {
		return false
	}
	r.state = StateSuspect
	r.changed = time.Now()
	return true
}

// Confirm marks id alive at its current incarnation (a successful probe
// clears suspicion). Never resurrects a departed member — that requires a
// higher incarnation via Merge.
func (m *Membership) Confirm(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.rows[id]
	if !ok || r.state != StateSuspect {
		return false
	}
	r.state = StateAlive
	r.changed = time.Now()
	return true
}

// Leave marks self as departed at a bumped incarnation, so the claim beats
// any alive row other nodes hold. The returned digest is the goodbye
// announcement.
func (m *Membership) Leave() []MemberEntry {
	m.mu.Lock()
	r := m.rows[m.self]
	r.inc++
	r.state = StateLeft
	r.changed = time.Now()
	m.mu.Unlock()
	return m.Digest()
}

// Tick expires suspicions into departures and drops old tombstones.
// Returns the members confirmed dead this tick (ring change when non-empty).
func (m *Membership) Tick(suspicionTimeout, tombstoneTTL time.Duration) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	var dead []string
	for id, r := range m.rows {
		if id == m.self {
			continue
		}
		switch r.state {
		case StateSuspect:
			if now.Sub(r.changed) >= suspicionTimeout {
				r.state = StateLeft
				r.changed = now
				dead = append(dead, id)
			}
		case StateLeft:
			if tombstoneTTL > 0 && now.Sub(r.changed) >= tombstoneTTL {
				delete(m.rows, id)
			}
		}
	}
	sort.Strings(dead)
	return dead
}
