package looptrafo

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dfg"
	"repro/internal/spec"
)

// chainSpec builds a loop with an n-deep accumulation chain on "acc" plus
// a producer and a consumer around it.
func chainSpec(t testing.TB, n int) *spec.Spec {
	t.Helper()
	b := spec.NewBuilder("chain")
	b.Group("in", 1024, 8).Group("acc", 256, 20).Group("out", 1024, 8)
	b.Loop("body", 1000)
	p := b.Read("in", 1)
	prev := b.Read("acc", 1, p)
	for i := 1; i < n; i++ {
		prev = b.Read("acc", 1, prev)
	}
	b.Write("out", 1, prev)
	return b.MustBuild()
}

func TestChainTreeifyShortensCP(t *testing.T) {
	s := chainSpec(t, 8)
	before := dfg.CriticalPath(&s.Loops[0]) // 1 + 8 + 1 = 10
	if before != 10 {
		t.Fatalf("setup: CP = %d, want 10", before)
	}
	out, err := ChainTreeify(s, "body", "acc")
	if err != nil {
		t.Fatal(err)
	}
	after := dfg.CriticalPath(&out.Loops[0])
	// Heap of 8 nodes has depth 4; plus producer and consumer = 6.
	if after != 6 {
		t.Fatalf("CP after treeify = %d, want 6", after)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	// Access counts unchanged.
	if out.TotalAccesses() != s.TotalAccesses() {
		t.Fatal("treeify changed access counts")
	}
	// Consumer still depends on the reduction result (the tree root).
	consumer := out.Loops[0].Accesses[len(out.Loops[0].Accesses)-1]
	if !consumer.Write || len(consumer.Deps) == 0 {
		t.Fatalf("consumer lost its dependences: %+v", consumer)
	}
	// Input spec untouched.
	if dfg.CriticalPath(&s.Loops[0]) != before {
		t.Fatal("ChainTreeify mutated its input")
	}
}

func TestChainTreeifyPreservesExternalDeps(t *testing.T) {
	s := chainSpec(t, 5)
	out, err := ChainTreeify(s, "body", "acc")
	if err != nil {
		t.Fatal(err)
	}
	l := out.Loops[0]
	// Every acc access must (transitively) depend on the producer read.
	producerID := 0
	for _, a := range l.Accesses {
		if a.Group != "acc" {
			continue
		}
		if !dependsTransitively(&l, a.ID, producerID) {
			t.Fatalf("acc access %d lost the producer dependence", a.ID)
		}
	}
}

func dependsTransitively(l *spec.Loop, from, to int) bool {
	seen := make(map[int]bool)
	var walk func(id int) bool
	walk = func(id int) bool {
		if id == to {
			return true
		}
		if seen[id] {
			return false
		}
		seen[id] = true
		for _, d := range l.Accesses[id].Deps {
			if walk(d) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

func TestChainTreeifyErrors(t *testing.T) {
	s := chainSpec(t, 5)
	if _, err := ChainTreeify(s, "ghost", "acc"); err == nil {
		t.Error("unknown loop accepted")
	}
	if _, err := ChainTreeify(s, "body", "in"); err == nil {
		t.Error("chain of length 1 accepted")
	}
	short := chainSpec(t, 2)
	if _, err := ChainTreeify(short, "body", "acc"); err == nil {
		t.Error("chain of length 2 accepted")
	}
}

func TestReduceMACPReachesTarget(t *testing.T) {
	s := chainSpec(t, 16) // CP 18, MACP 18000
	target := uint64(9000)
	out, log, err := ReduceMACP(s, target)
	if err != nil {
		t.Fatalf("err %v (log %v)", err, log)
	}
	if got := dfg.MACP(out); got > target {
		t.Fatalf("MACP %d above target %d", got, target)
	}
	if len(log) == 0 {
		t.Fatal("no transformations logged")
	}
	if !strings.Contains(log[0], "treeify") {
		t.Fatalf("unexpected log entry %q", log[0])
	}
}

func TestReduceMACPImpossible(t *testing.T) {
	s := chainSpec(t, 4)
	// Target below what any rebalancing can reach.
	if _, _, err := ReduceMACP(s, 1000); err == nil {
		t.Fatal("impossible target reported success")
	}
}

func TestReduceMACPNoopWhenFeasible(t *testing.T) {
	s := chainSpec(t, 4)
	out, log, err := ReduceMACP(s, dfg.MACP(s))
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 0 {
		t.Fatalf("transformations applied unnecessarily: %v", log)
	}
	if out.TotalAccesses() != s.TotalAccesses() {
		t.Fatal("noop reduction changed the spec")
	}
}

// Property: treeify always preserves validity, access totals, and yields
// CP <= original, for random chain lengths.
func TestQuickTreeifyInvariants(t *testing.T) {
	f := func(nSeed uint8) bool {
		n := int(nSeed)%30 + 3
		s := chainSpec(t, n)
		before := dfg.CriticalPath(&s.Loops[0])
		out, err := ChainTreeify(s, "body", "acc")
		if err != nil {
			return false
		}
		after := dfg.CriticalPath(&out.Loops[0])
		return out.Validate() == nil &&
			out.TotalAccesses() == s.TotalAccesses() &&
			after <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
