package cluster

import (
	"fmt"
	"testing"
)

// buildViews constructs one Router per member, each initialised with the
// same full member list (self + everyone else), i.e. a consistent view.
func buildViews(t *testing.T, members []string) map[string]*Router {
	t.Helper()
	views := make(map[string]*Router, len(members))
	for _, self := range members {
		var peers []string
		for _, m := range members {
			if m != self {
				peers = append(peers, m)
			}
		}
		r, err := New(Config{Self: self})
		if err != nil {
			t.Fatal(err)
		}
		r.SetMembers(peers)
		views[self] = r
	}
	return views
}

// TestAtMostOneOwnerAcrossConsistentViews is the ownership safety
// property behind shard handoff: as long as every node holds the same
// membership view, exactly one node reports Owns()==true for any key —
// before and after membership churn applied to all views.
func TestAtMostOneOwnerAcrossConsistentViews(t *testing.T) {
	members := []string{
		"http://n1.test", "http://n2.test", "http://n3.test",
		"http://n4.test", "http://n5.test",
	}
	views := buildViews(t, members)

	check := func(stage string) {
		t.Helper()
		for i := 0; i < 2000; i++ {
			key := uint64(i) * 0x9e3779b97f4a7c15
			owners := 0
			for _, r := range views {
				if r.Owns(key) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("%s: key %#x has %d owners, want exactly 1", stage, key, owners)
			}
		}
	}
	check("initial 5-node view")

	// Churn: n3 leaves, n6 joins. Every surviving view applies the same
	// SetMembers; the departed node's view is discarded, the newcomer's is
	// built fresh — exactly what syncMembership does on each node.
	next := []string{
		"http://n1.test", "http://n2.test",
		"http://n4.test", "http://n5.test", "http://n6.test",
	}
	delete(views, "http://n3.test")
	for self, r := range views {
		var rest []string
		for _, m := range next {
			if m != self {
				rest = append(rest, m)
			}
		}
		r.SetMembers(rest)
	}
	joined, err := New(Config{Self: "http://n6.test"})
	if err != nil {
		t.Fatal(err)
	}
	joined.SetMembers(next[:4])
	views["http://n6.test"] = joined
	check("post-churn view (leave + join)")

	// Sanity: all views agree on the ring itself, not just ownership.
	var want string
	for self, r := range views {
		got := fmt.Sprintf("%v", r.Ring().Members())
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("view %s has ring %s, others have %s", self, got, want)
		}
	}
}
