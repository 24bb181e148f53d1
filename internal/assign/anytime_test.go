package assign

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/memlib"
	"repro/internal/sbd"
	"repro/internal/spec"
)

// anytimeProblem is a randomly generated on-chip-only assignment problem.
// Keeping every group under the threshold isolates the anytime property to
// the branch-and-bound: Greedy runs the full off-chip partition search, so
// mixing in off-chip groups would compare different off-chip organizations.
type anytimeProblem struct {
	spec  *spec.Spec
	pats  []sbd.Pattern
	count int
}

// genProblem derives a problem from a random source: 3..10 on-chip groups
// with varied widths and access counts, an optional conflict pattern, and a
// 1..4 memory allocation.
func genProblem(r *rand.Rand) anytimeProblem {
	n := 3 + r.Intn(8)
	b := spec.NewBuilder("anytime")
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("g%d", i)
		words := int64(16 << r.Intn(9)) // 16 .. 4096 words: always on-chip
		bits := 1 + r.Intn(24)
		b.Group(names[i], words, bits)
	}
	b.Loop("l", uint64(1000+r.Intn(1_000_000)))
	for i := 0; i < n; i++ {
		b.Read(names[i], float64(1+r.Intn(6)))
		if r.Intn(2) == 0 {
			b.Write(names[i], float64(1+r.Intn(3)))
		}
	}
	s := b.MustBuild()

	var pats []sbd.Pattern
	if r.Intn(2) == 0 {
		// One random simultaneity pattern over a pair of groups: forces a
		// port constraint the assignment must respect.
		acc := map[string]int{
			names[r.Intn(n)]: 1 + r.Intn(2),
			names[r.Intn(n)]: 1 + r.Intn(2),
		}
		pats = append(pats, sbd.Pattern{Access: acc, Weight: 1000})
	}
	return anytimeProblem{spec: s, pats: pats, count: 1 + r.Intn(4)}
}

// checkValid asserts structural validity of an assignment: every accessed
// group mapped to exactly one memory, the allocation bound respected, and
// every memory's ports within the configured cap.
func checkValid(t *testing.T, p anytimeProblem, a *Assignment) {
	t.Helper()
	if a == nil {
		t.Fatal("nil assignment")
	}
	if len(a.OnChip) > p.count {
		t.Fatalf("%d on-chip memories, allocated %d", len(a.OnChip), p.count)
	}
	acc := p.spec.FrameAccesses()
	for i, g := range p.spec.Groups {
		if acc[i] == 0 {
			continue
		}
		if a.GroupMem[g.Name] == "" {
			t.Fatalf("group %s unmapped", g.Name)
		}
	}
	for _, bind := range a.OnChip {
		if bind.Mem.Ports < 1 || bind.Mem.Ports > maxPorts {
			t.Fatalf("memory %s has %d ports (cap %d)", bind.Mem.Name, bind.Mem.Ports, maxPorts)
		}
		// The memory's port count must cover the worst simultaneity its
		// members see in any conflict pattern.
		for _, pt := range p.pats {
			demand := 0
			for _, g := range bind.Groups {
				demand += pt.Access[g]
			}
			if demand > bind.Mem.Ports {
				t.Fatalf("memory %s: pattern demands %d ports, has %d",
					bind.Mem.Name, demand, bind.Mem.Ports)
			}
		}
	}
}

// TestAnytimeAssignProperty is the testing/quick property of the anytime
// path: under an already-canceled context, AssignContext must return a
// valid assignment no costlier than the greedy baseline, flagged
// Optimal=false — never a panic, an error, or nil.
func TestAnytimeAssignProperty(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	tech := memlib.Default()

	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := genProblem(r)
		a, err := AssignContext(canceled, p.spec, p.pats, tech, p.count, Params{})
		if err != nil {
			t.Logf("seed %d: error: %v", seed, err)
			return false
		}
		if a.Optimal {
			t.Logf("seed %d: canceled search claims optimality", seed)
			return false
		}
		checkValid(t, p, a)
		gr, err := Greedy(p.spec, p.pats, tech, p.count, Params{})
		if err != nil {
			t.Logf("seed %d: greedy: %v", seed, err)
			return false
		}
		got := a.Cost.OnChipPower + areaWeight*a.Cost.OnChipArea
		base := gr.Cost.OnChipPower + areaWeight*gr.Cost.OnChipArea
		if got > base+1e-9 {
			t.Logf("seed %d: anytime %.4f costlier than greedy %.4f", seed, got, base)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAnytimeAssignRandomDeadlines exercises mid-search expiry: random
// tight deadlines must still yield valid assignments, optimal or not.
func TestAnytimeAssignRandomDeadlines(t *testing.T) {
	tech := memlib.Default()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		p := genProblem(r)
		d := time.Duration(r.Intn(200)) * time.Microsecond
		ctx, cancel := context.WithTimeout(context.Background(), d)
		a, err := AssignContext(ctx, p.spec, p.pats, tech, p.count, Params{})
		cancel()
		if err != nil {
			t.Fatalf("iter %d (deadline %v): %v", i, d, err)
		}
		checkValid(t, p, a)
	}
}

// TestAssignContextAlreadyCanceledIsFast is the ~100ms acceptance bound:
// an expired context must return the greedy incumbent immediately, even on
// a problem sized to make the exact search expensive.
func TestAssignContextAlreadyCanceledIsFast(t *testing.T) {
	b := spec.NewBuilder("wide")
	for i := 0; i < 14; i++ {
		b.Group(fmt.Sprintf("g%d", i), int64(64<<(i%6)), 2+i)
	}
	b.Loop("l", 500_000)
	for i := 0; i < 14; i++ {
		b.Read(fmt.Sprintf("g%d", i), float64(1+i%4))
	}
	s := b.MustBuild()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	a, err := AssignContext(ctx, s, nil, memlib.Default(), 6, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("canceled assignment took %v, want < 100ms", el)
	}
	if a.Optimal {
		t.Fatal("canceled search claims optimality")
	}
	if len(a.OnChip) == 0 {
		t.Fatal("no on-chip memories in incumbent")
	}
}
