package assign

import (
	"math/rand"
	"testing"

	"repro/internal/memlib"
	"repro/internal/sbd"
	"repro/internal/spec"
)

// conflictSpec builds a spec with enough groups, patterns, and lifetime
// structure to exercise every field the incremental push/pop maintains.
func conflictSpec(t *testing.T) (*spec.Spec, []sbd.Pattern) {
	t.Helper()
	b := spec.NewBuilder("inc")
	b.Group("a", 1024, 8)
	b.Group("b", 512, 16)
	b.Group("c", 2048, 4)
	b.Group("d", 256, 12)
	b.Group("e", 128, 24)
	b.Loop("l1", 1000)
	b.Read("a", 2)
	b.Read("b", 1)
	b.Write("c", 1)
	b.Loop("l2", 500)
	b.Read("d", 1)
	b.Read("e", 2)
	b.Loop("l3", 200)
	b.Read("a", 1)
	b.Write("e", 1)
	s := b.MustBuild()
	pats := []sbd.Pattern{
		{Access: map[string]int{"a": 2, "b": 1}, Weight: 1000},
		{Access: map[string]int{"c": 1, "d": 1}, Weight: 500},
		{Access: map[string]int{"e": 2}, Weight: 500},
		{Access: map[string]int{"a": 1, "e": 1}, Weight: 200},
	}
	return s, pats
}

// TestPushPopMatchesRecompute drives a memState through a pseudo-random
// push/pop sequence and checks after every step that the incrementally
// maintained aggregate is identical to a from-scratch recompute of the
// current member set — in both normal and in-place mode.
func TestPushPopMatchesRecompute(t *testing.T) {
	s, pats := conflictSpec(t)
	for _, inPlace := range []bool{false, true} {
		p := Params{InPlace: inPlace}
		p.normalize()
		acc := s.FrameAccesses()
		onG, _ := partition(s, acc, memlib.Default())
		pr := buildProblem(s, onG, acc, pats, memlib.Default(), p)

		var m memState
		var members []int
		var undos []memUndo
		rng := rand.New(rand.NewSource(42))
		for step := 0; step < 500; step++ {
			if len(members) == 0 || (len(members) < len(onG) && rng.Intn(2) == 0) {
				gi := rng.Intn(len(onG))
				undos = append(undos, m.push(pr, gi))
				members = append(members, gi)
			} else {
				last := len(members) - 1
				m.pop(pr, members[last], undos[last])
				members, undos = members[:last], undos[:last]
			}
			var ref memState
			ref.recompute(pr, members)
			if m.words != ref.words || m.bits != ref.bits || m.ports != ref.ports ||
				m.acc != ref.acc || m.nGroups != ref.nGroups {
				t.Fatalf("inPlace=%v step %d members %v: incremental %+v != recompute %+v",
					inPlace, step, members, m, ref)
			}
			for pi := range pats {
				want := 0
				if ref.vec != nil {
					want = ref.vec[pi]
				}
				if m.vec[pi] != want {
					t.Fatalf("inPlace=%v step %d: vec[%d] = %d, want %d",
						inPlace, step, pi, m.vec[pi], want)
				}
			}
			if inPlace {
				for li := range m.live {
					want := int64(0)
					if ref.live != nil {
						want = ref.live[li]
					}
					if m.live[li] != want {
						t.Fatalf("inPlace=%v step %d: live[%d] = %d, want %d",
							inPlace, step, li, m.live[li], want)
					}
				}
			}
		}
	}
}

// TestSelfPortsFloor pins the per-group port floor the lower bound uses.
func TestSelfPortsFloor(t *testing.T) {
	s, pats := conflictSpec(t)
	p := Params{}
	p.normalize()
	acc := s.FrameAccesses()
	onG, _ := partition(s, acc, memlib.Default())
	pr := buildProblem(s, onG, acc, pats, memlib.Default(), p)
	want := map[string]int{"a": 2, "b": 1, "c": 1, "d": 1, "e": 2}
	for gi, g := range pr.groups {
		if got := pr.selfPorts(gi); got != want[g.Name] {
			t.Fatalf("selfPorts(%s) = %d, want %d", g.Name, got, want[g.Name])
		}
	}
}
