package sbd

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/spec"
)

// jumpSpec builds a seeded random spec of 1–3 loops over a shared pool of
// on-chip and off-chip groups. Each loop draws one of four shapes: all
// accesses on-chip, all off-chip, both kinds mixed, or any groups with
// up to three branch tags. Accesses take random earlier-access
// dependences, so the critical path varies from 1 to the serial schedule.
func jumpSpec(seed int64) *spec.Spec {
	rng := rand.New(rand.NewSource(seed))
	b := spec.NewBuilder(fmt.Sprintf("jump%d", seed))
	var on, off []string
	for g := 0; g < 2+rng.Intn(5); g++ {
		on = append(on, fmt.Sprintf("on%d", g))
		b.Group(on[g], int64(16)<<rng.Intn(8), 2+rng.Intn(19))
	}
	for g := 0; g < 1+rng.Intn(3); g++ {
		off = append(off, fmt.Sprintf("off%d", g))
		b.Group(off[g], offWords, 2+rng.Intn(19))
	}
	all := append(append([]string{}, on...), off...)
	for li := 0; li < 1+rng.Intn(3); li++ {
		b.Loop(fmt.Sprintf("l%d", li), uint64(1+rng.Intn(1<<uint(rng.Intn(13)))))
		shape := rng.Intn(4)
		pool := [][]string{on, off, all, all}[shape]
		n := 2 + rng.Intn(9)
		for i := 0; i < n; i++ {
			tag := ""
			if shape == 3 && rng.Intn(2) == 0 {
				tag = fmt.Sprintf("br%d", rng.Intn(3))
			}
			b.Branch(tag)
			var deps []int
			for j := 0; j < i && len(deps) < 3; j++ {
				if rng.Intn(4) == 0 {
					deps = append(deps, j)
				}
			}
			grp := pool[rng.Intn(len(pool))]
			if rng.Intn(3) == 0 {
				b.Write(grp, 1, deps...)
			} else {
				b.Read(grp, 1, deps...)
			}
		}
		b.Branch("")
	}
	return b.MustBuild()
}

// jumpBound is the budget from which no loop of s is short of cycles: the
// Σ over loops of Σ durations × iterations, its weighted MACP plus every
// curve's span. At and above it every qualifying spec may jump; below it,
// only one whose short curves end at their minimum point.
func jumpBound(s *spec.Spec) uint64 {
	var p Params
	p.normalize()
	groups := groupsOf(s)
	var bound uint64
	for _, l := range s.Loops {
		sum := 0
		for _, a := range l.Accesses {
			sum += p.Duration(groups[a.Group])
		}
		bound += uint64(sum) * l.Iterations
	}
	return bound
}

// countPoints runs one distributor under a collecting observer and returns
// its distribution with the number of curve points it resolved.
func countPoints(t *testing.T, ctx context.Context, s *spec.Spec, budget uint64, p Params,
	fn func(context.Context, *spec.Spec, uint64, Params) (*Distribution, error)) (*Distribution, int) {
	t.Helper()
	c := obs.NewCollector()
	root := obs.New(c).Start("test")
	p.Obs = root
	d, err := fn(ctx, s, budget, p)
	if err != nil {
		t.Fatalf("%s budget %d: %v", s.Name, budget, err)
	}
	root.End()
	return d, int(c.Find("sbd.distribute")[0].Fields["curve_points"].(int64))
}

// identical reports the first difference between two distributions: the
// whole value by reflect.DeepEqual (schedules, patterns, Used, Degraded),
// then the bits of every cost, which DeepEqual compares only by value.
func identical(got, want *Distribution) string {
	if !reflect.DeepEqual(got, want) {
		return "distributions differ: " + sameDistribution(got, want)
	}
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		return fmt.Sprintf("cost bits %x, want %x", math.Float64bits(got.Cost), math.Float64bits(want.Cost))
	}
	for i, g := range got.Loops {
		w := want.Loops[i]
		for _, c := range [][2]float64{{g.Cost, w.Cost}, {g.WeightedCost, w.WeightedCost}, {g.StructuralCost, w.StructuralCost}} {
			if math.Float64bits(c[0]) != math.Float64bits(c[1]) {
				return fmt.Sprintf("loop %s cost bits %x, want %x", g.Loop, math.Float64bits(c[0]), math.Float64bits(c[1]))
			}
		}
	}
	return ""
}

// TestJumpMatchesFullScan requires the distributor with the jump to the
// conflict-free end to commit exactly what the point-by-point scan commits,
// on 2 400 random specs of 1–3 loops (on-chip, off-chip, mixed-kind and
// branch-tagged), at the weighted MACP, one cycle below, at and above the
// bound where the budget stops binding, and at twice it, with and without a
// session cache; and under an already-canceled context, where both must
// commit every loop's minimum point flagged Degraded. It fails unless the
// jump resolved fewer points on some case and never more than two per loop
// where it fired, so it cannot pass with the jump switched off.
func TestJumpMatchesFullScan(t *testing.T) {
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	cases, jumped := 0, 0
	for seed := int64(1); seed <= 2400; seed++ {
		s := jumpSpec(seed)
		bound := jumpBound(s)
		budgets := []uint64{weightedMACP(s), bound - 1, bound, bound + 1, 2 * bound}
		var jumpMemo, scanMemo *memo.Cache
		if seed%2 == 0 {
			jumpMemo, scanMemo = memo.New(memo.Schedule), memo.New(memo.Schedule)
		}
		for _, budget := range budgets {
			if budget < weightedMACP(s) {
				continue
			}
			got, n := countPoints(t, context.Background(), s, budget, Params{Memo: jumpMemo}, DistributeContext)
			want, full := countPoints(t, context.Background(), s, budget, Params{Memo: scanMemo}, distributeFullScan)
			if diff := identical(got, want); diff != "" {
				t.Fatalf("%s budget %d (bound %d): %s", s.Name, budget, bound, diff)
			}
			cases++
			if n < full {
				jumped++
				if n > 2*len(s.Loops) {
					t.Fatalf("%s budget %d: the jump resolved %d points for %d loops", s.Name, budget, n, len(s.Loops))
				}
			}
		}
		got, _ := countPoints(t, dead, s, 2*bound, Params{}, DistributeContext)
		want, _ := countPoints(t, dead, s, 2*bound, Params{}, distributeFullScan)
		if diff := identical(got, want); diff != "" {
			t.Fatalf("%s canceled: %s", s.Name, diff)
		}
		if !got.Degraded {
			t.Fatalf("%s: canceled run not flagged Degraded", s.Name)
		}
		groups := groupsOf(s)
		for i, ls := range got.Loops {
			if cp := WeightedCP(&s.Loops[i], groups, Params{}); ls.Budget != cp {
				t.Fatalf("%s canceled: loop %s committed budget %d, want its minimum %d", s.Name, ls.Loop, ls.Budget, cp)
			}
		}
	}
	t.Logf("%d cases, the jump fired on %d", cases, jumped)
	if jumped == 0 {
		t.Fatal("the jump never fired")
	}
}

// TestDroppedJumpBalancesEndOnce pins jumpSpec seeds whose loops all
// qualify for the jump but whose balancer misses the conflict-free
// schedule at the bound, so the jump is dropped and the scan runs point by
// point up to max. Without a session cache the distributor must commit
// what the full scan commits and resolve exactly as many points: the max
// schedule the jump balanced is reused, not balanced a second time.
func TestDroppedJumpBalancesEndOnce(t *testing.T) {
	var p Params
	p.normalize()
	for _, seed := range []int64{17, 58, 89, 213, 288} {
		s := jumpSpec(seed)
		groups := groupsOf(s)
		for i := range s.Loops {
			if !everyOverlapCosts(&s.Loops[i], groups, p) {
				t.Fatalf("%s: loop %s does not qualify for the jump", s.Name, s.Loops[i].Name)
			}
		}
		bound := jumpBound(s)
		got, n := countPoints(t, context.Background(), s, bound, Params{}, DistributeContext)
		want, full := countPoints(t, context.Background(), s, bound, Params{}, distributeFullScan)
		if diff := identical(got, want); diff != "" {
			t.Fatalf("%s: %s", s.Name, diff)
		}
		if n <= 2*len(s.Loops) {
			t.Fatalf("%s: %d points for %d loops, the jump was not dropped", s.Name, n, len(s.Loops))
		}
		if n != full {
			t.Fatalf("%s: resolved %d curve points, the full scan %d", s.Name, n, full)
		}
	}
}
