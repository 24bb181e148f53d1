package dfg

import (
	"testing"

	"repro/internal/spec"
)

// chainLoop builds g0 -> g1 -> ... -> g{n-1} (a pure dependence chain).
func chainLoop(t *testing.T, n int, iters uint64) *spec.Spec {
	t.Helper()
	b := spec.NewBuilder("chain")
	b.Group("g", 64, 8)
	b.Loop("l", iters)
	prev := -1
	for i := 0; i < n; i++ {
		if prev < 0 {
			prev = b.Read("g", 1)
		} else {
			prev = b.Read("g", 1, prev)
		}
	}
	return b.MustBuild()
}

// diamondLoop builds a -> {b, c} -> d.
func diamondLoop(t *testing.T) *spec.Spec {
	t.Helper()
	bd := spec.NewBuilder("diamond")
	bd.Group("g", 64, 8)
	bd.Loop("l", 10)
	a := bd.Read("g", 1)
	b := bd.Read("g", 1, a)
	c := bd.Read("g", 1, a)
	bd.Write("g", 1, b, c)
	return bd.MustBuild()
}

func TestCriticalPathChain(t *testing.T) {
	s := chainLoop(t, 5, 1)
	if cp := CriticalPath(&s.Loops[0]); cp != 5 {
		t.Fatalf("chain CP = %d, want 5", cp)
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	s := diamondLoop(t)
	if cp := CriticalPath(&s.Loops[0]); cp != 3 {
		t.Fatalf("diamond CP = %d, want 3", cp)
	}
}

func TestCriticalPathIndependent(t *testing.T) {
	b := spec.NewBuilder("par")
	b.Group("g", 64, 8)
	b.Loop("l", 1)
	for i := 0; i < 7; i++ {
		b.Read("g", 1)
	}
	s := b.MustBuild()
	if cp := CriticalPath(&s.Loops[0]); cp != 1 {
		t.Fatalf("independent CP = %d, want 1", cp)
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	l := &spec.Loop{Name: "empty", Iterations: 1}
	if cp := CriticalPath(l); cp != 0 {
		t.Fatalf("empty CP = %d, want 0", cp)
	}
}

func TestMACPSumsLoops(t *testing.T) {
	b := spec.NewBuilder("two")
	b.Group("g", 64, 8)
	b.Loop("l1", 100)
	r := b.Read("g", 1)
	b.Write("g", 1, r)
	b.Loop("l2", 10)
	b.Read("g", 1)
	s := b.MustBuild()
	if m := MACP(s); m != 100*2+10*1 {
		t.Fatalf("MACP = %d, want 210", m)
	}
}

func TestTopoOrderRespectsDeps(t *testing.T) {
	s := diamondLoop(t)
	order, _ := TopoOrderScratch(&s.Loops[0], nil)
	pos := make(map[int]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, a := range s.Loops[0].Accesses {
		for _, d := range a.Deps {
			if pos[d] >= pos[a.ID] {
				t.Fatalf("dep %d not before %d in %v", d, a.ID, order)
			}
		}
	}
	if len(order) != 4 {
		t.Fatalf("order has %d entries", len(order))
	}
}
