package assign

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/memlib"
	"repro/internal/sbd"
	"repro/internal/spec"
)

// requestSpec builds a seeded spec shaped like a spec-mode request of the
// benchmark's cold and ring traffic: lo to hi on-chip groups of 128-1024
// words and 4-14 bits in one loop of 2048-4095 iterations, each read once
// or twice and written half the time.
func requestSpec(rng *rand.Rand, name string, lo, hi int) *spec.Spec {
	b := spec.NewBuilder(name)
	names := make([]string, lo+rng.Intn(hi-lo+1))
	for i := range names {
		names[i] = fmt.Sprintf("g%d", i)
		b.Group(names[i], int64(128<<uint(rng.Intn(4))), 4+2*rng.Intn(6))
	}
	b.Loop("body", 2048+uint64(rng.Intn(2048)))
	for _, n := range names {
		b.Read(n, float64(1+rng.Intn(2)))
		if rng.Intn(2) == 0 {
			b.Write(n, 1)
		}
	}
	return b.MustBuild()
}

// requestPatterns derives the conflict patterns the assignment of a
// spec-mode request sees: the distribution at a 20M-cycle budget, pruned.
func requestPatterns(t *testing.T, s *spec.Spec) []sbd.Pattern {
	t.Helper()
	d, err := sbd.DistributeContext(context.Background(), s, 20_000_000, sbd.Params{})
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	return sbd.PrunePatterns(d.Patterns)
}

// mirrorKey is the on-chip organization of a with every group replaced by
// its twin class (twins), memories in sorted order: two answers with the
// same key differ only by swapping twins and relabeling memories.
func mirrorKey(s *spec.Spec, pats []sbd.Pattern, tech *memlib.Tech, p Params, a *Assignment) string {
	p.normalize()
	acc := s.FrameAccesses()
	on, _ := partition(s, acc, tech)
	pr := buildProblem(s, on, acc, pats, tech, p)
	order := make([]int, len(on))
	for i := range order {
		order[i] = i
	}
	twin := pr.twins(order)
	class := make(map[string]string, len(on))
	for i, g := range pr.groups {
		class[g.Name] = g.Name
		if twin != nil && twin[i] >= 0 {
			class[g.Name] = class[pr.groups[twin[i]].Name]
		}
	}
	mems := make([]string, len(a.OnChip))
	for i, b := range a.OnChip {
		members := make([]string, len(b.Groups))
		for j, g := range b.Groups {
			members[j] = class[g]
		}
		sort.Strings(members)
		mems[i] = strings.Join(members, ",")
	}
	sort.Strings(mems)
	return strings.Join(mems, "|")
}

// TestPrunesMatchUnpruned requires the search with the width-waste term and
// the twin rule to give the answer of the search without them, on 3 000
// seeded instances: 1 200 spec_cold-shaped (12-13 groups) and 600
// ring_batch-shaped (10-13 groups) requests through the distribution at a
// 20M-cycle budget with 4 memories, and randomInstance's multi-port
// conflicts at 600 seeds, each with 1-3 memories in plain and in-place
// mode. Each pair of answers must be identical, cost bits included, or the
// twin-swapped mirror of each other at a cost equal within 1e-12 relative;
// every answer must pass checkAssignment. It fails if either prune never
// fires, or the waste term fires in in-place mode, where it is unsound.
func TestPrunesMatchUnpruned(t *testing.T) {
	tech := memlib.Default()
	ctx := context.Background()
	instances, mirrors, wasteFired, twinFired, twinInPlace := 0, 0, 0, 0, 0
	check := func(s *spec.Spec, pats []sbd.Pattern, count int, p Params) {
		t.Helper()
		instances++
		name := fmt.Sprintf("%s count=%d inplace=%v", s.Name, count, p.InPlace)
		got, st, gotErr := assignWith(ctx, s, pats, tech, count, p, true)
		want, _, wantErr := assignUnpruned(ctx, s, pats, tech, count, p)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, unpruned %v", name, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		for _, a := range []*Assignment{got, want} {
			if err := checkAssignment(s, pats, tech, count, p, a); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if !got.Optimal || !want.Optimal {
			t.Fatalf("%s: a search stopped early (optimal %v, unpruned %v)", name, got.Optimal, want.Optimal)
		}
		if p.InPlace && st.wastePruned > 0 {
			t.Fatalf("%s: the width-waste term pruned %d nodes in in-place mode", name, st.wastePruned)
		}
		if st.wastePruned > 0 {
			wasteFired++
		}
		if st.twinSkipped > 0 {
			twinFired++
			if p.InPlace {
				twinInPlace++
			}
		}
		gc, wc := got.Cost, want.Cost
		if reflect.DeepEqual(got, want) && math.Float64bits(gc.OnChipArea) == math.Float64bits(wc.OnChipArea) &&
			math.Float64bits(gc.OnChipPower) == math.Float64bits(wc.OnChipPower) &&
			math.Float64bits(gc.OffChipPower) == math.Float64bits(wc.OffChipPower) {
			return
		}
		near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-12*math.Max(math.Abs(x), math.Abs(y)) }
		if !near(gc.OnChipArea, wc.OnChipArea) || !near(gc.OnChipPower, wc.OnChipPower) || gc.OffChipPower != wc.OffChipPower ||
			mirrorKey(s, pats, tech, p, got) != mirrorKey(s, pats, tech, p, want) {
			t.Fatalf("%s: pruned search answered %v at %+v, unpruned %v at %+v", name, got.GroupMem, gc, want.GroupMem, wc)
		}
		mirrors++
	}
	rng := rand.New(rand.NewSource(701))
	for i := 0; i < 1200; i++ {
		s := requestSpec(rng, fmt.Sprintf("cold%d", i), 12, 13)
		check(s, requestPatterns(t, s), 4, Params{})
	}
	for i := 0; i < 600; i++ {
		s := requestSpec(rng, fmt.Sprintf("ring%d", i), 10, 13)
		check(s, requestPatterns(t, s), 4, Params{})
	}
	for seed := int64(0); seed < 600; seed++ {
		s, pats := randomInstance(seed)
		for _, inPlace := range []bool{false, true} {
			check(s, pats, 1+int(seed%3), Params{InPlace: inPlace})
		}
	}
	t.Logf("%d instances, %d answered with the twin-swapped mirror; the waste term pruned in %d, the twin rule in %d (%d in-place)",
		instances, mirrors, wasteFired, twinFired, twinInPlace)
	if wasteFired == 0 || twinFired == 0 {
		t.Fatalf("a prune never fired: the waste term in %d instances, the twin rule in %d", wasteFired, twinFired)
	}
}
