package bgstruct

import (
	"math"
	"testing"

	"repro/internal/spec"
)

// ridgePyrSpec mimics the paper's situation: an 8-bit pyr and a 2-bit ridge
// array, read together at one site and written together at another, plus an
// extra ridge-only write site.
func ridgePyrSpec(t *testing.T) *spec.Spec {
	t.Helper()
	b := spec.NewBuilder("rp")
	b.Group("pyr", 1024, 8)
	b.Group("ridge", 1024, 2)
	b.Group("other", 64, 8)
	b.Loop("body", 1000)
	pr := b.ReadSite("pyr", "ctx", 1)
	rr := b.ReadSite("ridge", "ctx", 1)
	x := b.Read("other", 1, pr, rr)
	b.WriteSite("pyr", "store", 1, x)
	b.WriteSite("ridge", "store", 1, x)
	b.Write("ridge", 0.5, x) // ridge-only update site
	return b.MustBuild()
}

func TestMergeCollapsesPairs(t *testing.T) {
	s := ridgePyrSpec(t)
	m, err := Merge(s, "pyr", "ridge", "pyrridge")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	g, ok := m.Group("pyrridge")
	if !ok {
		t.Fatal("merged group missing")
	}
	if g.Bits != 10 || g.Words != 1024 {
		t.Fatalf("merged group = %+v, want 1024x10", g)
	}
	if _, ok := m.Group("pyr"); ok {
		t.Fatal("pyr still present")
	}
	if _, ok := m.Group("ridge"); ok {
		t.Fatal("ridge still present")
	}
	// Before: pyr 2 accesses + ridge 2.5 accesses = 4.5 per iteration.
	// After: ctx pair -> 1 read; store pair -> 1 write; ridge-only write
	// 0.5 -> RMW 1.0. Total 3.0 per iteration.
	got := float64(accessesPerFrame(m, "pyrridge")) / 1000
	if math.Abs(got-3.0) > 1e-9 {
		t.Fatalf("merged accesses/iter = %v, want 3.0", got)
	}
	// Merging must reduce total traffic here.
	if m.TotalAccesses() >= s.TotalAccesses() {
		t.Fatalf("merge did not reduce accesses: %d -> %d",
			s.TotalAccesses(), m.TotalAccesses())
	}
}

func TestMergePreservesOrderingConstraints(t *testing.T) {
	s := ridgePyrSpec(t)
	m, err := Merge(s, "pyr", "ridge", "pr")
	if err != nil {
		t.Fatal(err)
	}
	l := m.Loops[0]
	// Find the 'other' read: it must still depend on the merged ctx read.
	var ctxID = -1
	for _, a := range l.Accesses {
		if a.Site == "ctx" {
			ctxID = a.ID
		}
	}
	if ctxID < 0 {
		t.Fatal("merged ctx access missing")
	}
	found := false
	for _, a := range l.Accesses {
		if a.Group == "other" {
			for _, d := range a.Deps {
				if d == ctxID {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("dependence on merged access lost")
	}
}

func TestMergeErrors(t *testing.T) {
	s := ridgePyrSpec(t)
	if _, err := Merge(s, "pyr", "nope", "x"); err == nil {
		t.Error("unknown group accepted")
	}
	if _, err := Merge(s, "nope", "ridge", "x"); err == nil {
		t.Error("unknown group accepted")
	}
	if _, err := Merge(s, "pyr", "other", "x"); err == nil {
		t.Error("word-count mismatch accepted")
	}
	if _, err := Merge(s, "pyr", "ridge", "other"); err == nil {
		t.Error("name collision accepted")
	}
	b := spec.NewBuilder("wide")
	b.Group("a", 8, 40).Group("b", 8, 32)
	b.Loop("l", 1)
	b.Read("a", 1)
	b.Read("b", 1)
	ws := b.MustBuild()
	if _, err := Merge(ws, "a", "b", "ab"); err == nil {
		t.Error("72-bit merge accepted")
	}
}

func TestMergeLeavesOriginalUntouched(t *testing.T) {
	s := ridgePyrSpec(t)
	before := s.TotalAccesses()
	if _, err := Merge(s, "pyr", "ridge", "pr"); err != nil {
		t.Fatal(err)
	}
	if s.TotalAccesses() != before {
		t.Fatal("Merge mutated its input")
	}
	if _, ok := s.Group("pyr"); !ok {
		t.Fatal("input spec lost a group")
	}
}

func TestCompactReducesAccesses(t *testing.T) {
	s := ridgePyrSpec(t)
	c, err := Compact(s, "ridge", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	g, _ := c.Group("ridge")
	if g.Bits != 6 {
		t.Fatalf("compacted width = %d, want 6", g.Bits)
	}
	if g.Words != (1024+2)/3 {
		t.Fatalf("compacted words = %d, want %d", g.Words, (1024+2)/3)
	}
	// ridge before: 1 read + 1.5 writes = 2.5/iter.
	// After: reads 1/3; writes 1.5/3 = 0.5 with 0.5 extra reads -> 1.333.
	got := float64(accessesPerFrame(c, "ridge")) / 1000
	want := 1.0/3 + 0.5 + 0.5
	if math.Abs(got-want) > 1e-2 {
		t.Fatalf("compacted accesses/iter = %v, want %v", got, want)
	}
	if c.TotalAccesses() >= s.TotalAccesses() {
		t.Fatal("compaction did not reduce total accesses")
	}
}

func TestCompactWriteGetsReadModifyWrite(t *testing.T) {
	b := spec.NewBuilder("w")
	b.Group("n", 128, 2)
	b.Loop("l", 10)
	b.Write("n", 1)
	s := b.MustBuild()
	c, err := Compact(s, "n", 4)
	if err != nil {
		t.Fatal(err)
	}
	l := c.Loops[0]
	if len(l.Accesses) != 2 {
		t.Fatalf("%d accesses, want 2 (read + write)", len(l.Accesses))
	}
	var rd, wr *spec.Access
	for i := range l.Accesses {
		if l.Accesses[i].Write {
			wr = &l.Accesses[i]
		} else {
			rd = &l.Accesses[i]
		}
	}
	if rd == nil || wr == nil {
		t.Fatal("missing read or write")
	}
	hasDep := false
	for _, d := range wr.Deps {
		if d == rd.ID {
			hasDep = true
		}
	}
	if !hasDep {
		t.Fatal("compacted write does not depend on its fetch read")
	}
}

func TestCompactErrors(t *testing.T) {
	s := ridgePyrSpec(t)
	if _, err := Compact(s, "ridge", 1); err == nil {
		t.Error("factor 1 accepted")
	}
	if _, err := Compact(s, "ghost", 2); err == nil {
		t.Error("unknown group accepted")
	}
	if _, err := Compact(s, "pyr", 9); err == nil {
		t.Error("72-bit compaction accepted")
	}
}

func TestCompactPreservesOtherGroups(t *testing.T) {
	s := ridgePyrSpec(t)
	c, err := Compact(s, "ridge", 3)
	if err != nil {
		t.Fatal(err)
	}
	if accessesPerFrame(c, "pyr") != accessesPerFrame(s, "pyr") {
		t.Fatal("compaction changed pyr accesses")
	}
	if accessesPerFrame(c, "other") != accessesPerFrame(s, "other") {
		t.Fatal("compaction changed other accesses")
	}
}

func TestMergeUnpairedReadsJustRetarget(t *testing.T) {
	b := spec.NewBuilder("u")
	b.Group("a", 64, 4).Group("b", 64, 4)
	b.Loop("l", 100)
	b.Read("a", 1) // no site: unpaired
	b.Read("b", 1)
	s := b.MustBuild()
	m, err := Merge(s, "a", "b", "ab")
	if err != nil {
		t.Fatal(err)
	}
	// Two unpaired reads: both retarget, no extra accesses.
	if got := accessesPerFrame(m, "ab"); got != 200 {
		t.Fatalf("merged accesses = %d, want 200", got)
	}
}

// accessesPerFrame returns the named group's accesses per frame.
func accessesPerFrame(s *spec.Spec, name string) uint64 {
	for i := range s.Groups {
		if s.Groups[i].Name == name {
			return s.FrameAccesses()[i]
		}
	}
	return 0
}
