package spec

import (
	"strings"
	"testing"
	"testing/quick"
)

func buildSmall(t *testing.T) *Spec {
	t.Helper()
	b := NewBuilder("small")
	b.Group("a", 1024, 8).Group("b", 256, 16)
	b.Loop("main", 1000)
	r1 := b.Read("a", 1)
	r2 := b.Read("b", 0.5)
	b.Write("a", 1, r1, r2)
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuilderBasics(t *testing.T) {
	s := buildSmall(t)
	if len(s.Groups) != 2 || len(s.Loops) != 1 {
		t.Fatalf("groups %d loops %d", len(s.Groups), len(s.Loops))
	}
	g, ok := s.Group("b")
	if !ok || g.Words != 256 || g.Bits != 16 {
		t.Fatalf("Group(b) = %+v, %v", g, ok)
	}
	if _, ok := s.Group("zzz"); ok {
		t.Fatal("unknown group found")
	}
	if g.BitSize() != 256*16 {
		t.Fatalf("BitSize = %d", g.BitSize())
	}
}

func TestAccessesPerFrame(t *testing.T) {
	s := buildSmall(t)
	if got := accessesPerFrame(s, "a"); got != 2000 {
		t.Fatalf("a accesses = %d, want 2000", got)
	}
	if got := accessesPerFrame(s, "b"); got != 500 {
		t.Fatalf("b accesses = %d, want 500", got)
	}
	if got := s.TotalAccesses(); got != 2500 {
		t.Fatalf("total = %d, want 2500", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := buildSmall(t)
	c := s.Clone()
	c.Groups[0].Bits = 32
	c.Loops[0].Accesses[0].Count = 99
	c.Loops[0].Accesses[2].Deps[0] = 1
	if s.Groups[0].Bits == 32 || s.Loops[0].Accesses[0].Count == 99 {
		t.Fatal("clone shares group/access storage")
	}
	if s.Loops[0].Accesses[2].Deps[0] != 0 {
		t.Fatal("clone shares dep slices")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	mk := func(mut func(*Spec)) error {
		s := buildSmall(t).Clone()
		mut(s)
		return s.Validate()
	}
	cases := map[string]func(*Spec){
		"dup group":     func(s *Spec) { s.Groups = append(s.Groups, BasicGroup{Name: "a", Words: 1, Bits: 1}) },
		"empty name":    func(s *Spec) { s.Groups[0].Name = "" },
		"zero words":    func(s *Spec) { s.Groups[0].Words = 0 },
		"bad bits":      func(s *Spec) { s.Groups[0].Bits = 65 },
		"zero iters":    func(s *Spec) { s.Loops[0].Iterations = 0 },
		"unknown group": func(s *Spec) { s.Loops[0].Accesses[0].Group = "ghost" },
		"sparse IDs":    func(s *Spec) { s.Loops[0].Accesses[1].ID = 7 },
		"neg count":     func(s *Spec) { s.Loops[0].Accesses[0].Count = -1 },
		"dep range":     func(s *Spec) { s.Loops[0].Accesses[2].Deps = []int{9} },
		"self dep":      func(s *Spec) { s.Loops[0].Accesses[2].Deps = []int{2} },
		"dep cycle":     func(s *Spec) { s.Loops[0].Accesses[0].Deps = []int{2} },
	}
	for name, mut := range cases {
		if err := mk(mut); err == nil {
			t.Errorf("%s: Validate accepted a broken spec", name)
		}
	}
}

func TestBuilderAccessOutsideLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder("x").Group("a", 1, 1).Read("a", 1)
}

func TestGroupNamesOrder(t *testing.T) {
	s := buildSmall(t)
	names := s.GroupNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("GroupNames = %v", names)
	}
}

func TestAccessesPerIteration(t *testing.T) {
	s := buildSmall(t)
	if got := s.Loops[0].AccessesPerIteration(); got != 2.5 {
		t.Fatalf("AccessesPerIteration = %v, want 2.5", got)
	}
}

func TestValidateErrorMentionsLocation(t *testing.T) {
	s := buildSmall(t)
	s.Loops[0].Accesses[0].Group = "ghost"
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "main") || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// Property: Clone is always equal in totals and survives Validate whenever
// the original does.
func TestQuickCloneFaithful(t *testing.T) {
	f := func(counts []uint8, iters uint16) bool {
		b := NewBuilder("q")
		b.Group("g", 128, 8)
		b.Loop("l", uint64(iters)+1)
		prev := -1
		for _, c := range counts {
			var id int
			if prev >= 0 && c%2 == 0 {
				id = b.Read("g", float64(c), prev)
			} else {
				id = b.Write("g", float64(c))
			}
			prev = id
		}
		s, err := b.Build()
		if err != nil {
			return false
		}
		c := s.Clone()
		return c.Validate() == nil &&
			c.TotalAccesses() == s.TotalAccesses() &&
			accessesPerFrame(c, "g") == accessesPerFrame(s, "g")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// accessesPerFrame returns the named group's accesses per frame.
func accessesPerFrame(s *Spec, name string) uint64 {
	for i := range s.Groups {
		if s.Groups[i].Name == name {
			return s.FrameAccesses()[i]
		}
	}
	return 0
}
