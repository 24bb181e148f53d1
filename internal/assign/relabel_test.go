package assign

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/memlib"
	"repro/internal/sbd"
	"repro/internal/spec"
)

// relabel returns an equivalent problem under new names and orders: every
// group gets a fresh name (drawn so the names also sort differently), and
// the group declarations, the accesses of each loop and the patterns are
// shuffled. Access IDs are renumbered densely and dependences follow them.
func relabel(rng *rand.Rand, s *spec.Spec, pats []sbd.Pattern) (*spec.Spec, []sbd.Pattern) {
	rename := make(map[string]string, len(s.Groups))
	for i, j := range rng.Perm(len(s.Groups)) {
		rename[s.Groups[i].Name] = fmt.Sprintf("g%02d", j)
	}
	out := s.Clone()
	for i := range out.Groups {
		out.Groups[i].Name = rename[out.Groups[i].Name]
	}
	rng.Shuffle(len(out.Groups), func(i, j int) { out.Groups[i], out.Groups[j] = out.Groups[j], out.Groups[i] })
	for li := range out.Loops {
		acc := out.Loops[li].Accesses
		rng.Shuffle(len(acc), func(i, j int) { acc[i], acc[j] = acc[j], acc[i] })
		newID := make(map[int]int, len(acc))
		for i := range acc {
			newID[acc[i].ID] = i
		}
		for i := range acc {
			acc[i].ID = i
			acc[i].Group = rename[acc[i].Group]
			for k, d := range acc[i].Deps {
				acc[i].Deps[k] = newID[d]
			}
		}
	}
	outPats := make([]sbd.Pattern, len(pats))
	for i, p := range pats {
		m := make(map[string]int, len(p.Access))
		for g, n := range p.Access {
			m[rename[g]] = n
		}
		outPats[i] = sbd.Pattern{Access: m, Weight: p.Weight}
	}
	rng.Shuffle(len(outPats), func(i, j int) { outPats[i], outPats[j] = outPats[j], outPats[i] })
	return out, outPats
}

// TestAssignInvariantUnderRelabeling: the assignment objective, power +
// areaWeight·area, is a property of the problem, not of how its groups are
// named or ordered. For random and off-chip instances at every on-chip
// count and in-place mode, a relabelled copy must be exactly as feasible,
// and where both searches prove optimality their objectives must agree to
// 1e-9 relative (summation order may differ in the last bits).
func TestAssignInvariantUnderRelabeling(t *testing.T) {
	tech := memlib.Default()
	seeds := int64(600)
	if testing.Short() {
		seeds = 24
	}
	rng := rand.New(rand.NewSource(11))
	objective := func(a *Assignment) float64 { return a.Cost.TotalPower() + areaWeight*a.Cost.OnChipArea }
	compared := 0
	check := func(label string, s *spec.Spec, pats []sbd.Pattern, count int) {
		rs, rpats := relabel(rng, s, pats)
		if err := rs.Validate(); err != nil {
			t.Fatalf("%s: relabelled spec invalid: %v", label, err)
		}
		for _, inPlace := range []bool{false, true} {
			p := Params{InPlace: inPlace}
			a, errA := AssignContext(context.Background(), s, pats, tech, count, p)
			b, errB := AssignContext(context.Background(), rs, rpats, tech, count, p)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s count=%d inplace=%v: original error %v, relabelled error %v", label, count, inPlace, errA, errB)
			}
			if errA != nil || !a.Optimal || !b.Optimal {
				continue
			}
			compared++
			x, y := objective(a), objective(b)
			if math.Abs(x-y) > 1e-9*math.Max(math.Abs(x), math.Abs(y)) {
				t.Fatalf("%s count=%d inplace=%v: objective %v, relabelled %v", label, count, inPlace, x, y)
			}
		}
	}
	for seed := int64(0); seed < seeds; seed++ {
		s, pats := randomInstance(seed)
		for count := 1; count <= 3; count++ {
			check(fmt.Sprintf("seed=%d", seed), s, pats, count)
		}
		s, pats = offChipInstance(seed)
		check(fmt.Sprintf("offchip seed=%d", seed), s, pats, 1)
	}
	if compared == 0 {
		t.Fatal("no instance was solved to optimality on both sides")
	}
	t.Logf("%d optimal pairs compared", compared)
}
