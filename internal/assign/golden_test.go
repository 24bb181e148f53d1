package assign

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/memlib"
	"repro/internal/sbd"
	"repro/internal/spec"
)

var update = flag.Bool("update", false, "rewrite testdata/assign.golden from the current search")

// randomInstance builds a random assignment problem: 4..8 on-chip groups
// and 0/4/5 off-chip groups with varied sizes, widths, access
// multiplicities, and random conflict patterns. Deterministic per seed.
func randomInstance(seed int64) (*spec.Spec, []sbd.Pattern) {
	rng := rand.New(rand.NewSource(seed))
	b := spec.NewBuilder(fmt.Sprintf("rand%d", seed))
	nOn := 4 + rng.Intn(5)
	nOff := []int{0, 4, 5}[rng.Intn(3)]
	var names []string
	for i := 0; i < nOn; i++ {
		name := fmt.Sprintf("on%d", i)
		names = append(names, name)
		b.Group(name, int64(64<<uint(rng.Intn(5))), 2+2*rng.Intn(12))
	}
	for i := 0; i < nOff; i++ {
		name := fmt.Sprintf("off%d", i)
		names = append(names, name)
		b.Group(name, offWords<<uint(rng.Intn(2)), 4+4*rng.Intn(6))
	}
	b.Loop("l", 50_000+uint64(rng.Intn(100_000)))
	for _, name := range names {
		b.Read(name, float64(1+rng.Intn(4)))
		if rng.Intn(2) == 0 {
			b.Write(name, float64(1+rng.Intn(2)))
		}
	}
	var pats []sbd.Pattern
	for p := rng.Intn(3); p > 0; p-- {
		acc := map[string]int{}
		for _, name := range names {
			if rng.Intn(3) == 0 {
				acc[name] = 1 + rng.Intn(2)
			}
		}
		if len(acc) >= 2 {
			pats = append(pats, sbd.Pattern{Access: acc, Weight: uint64(100 + rng.Intn(2000))})
		}
	}
	return b.MustBuild(), pats
}

// offChipInstance builds a random problem whose off-chip packing is
// feasible and nontrivial: 4..7 off-chip groups of 65Ki+1..1Mi words and
// catalog widths, plus two on-chip groups, with random conflict patterns
// over all of them. randomInstance's off-chip groups are mostly wider or
// larger than any catalog device, so this corpus is what exercises the
// set-partition scan. Deterministic per seed.
func offChipInstance(seed int64) (*spec.Spec, []sbd.Pattern) {
	rng := rand.New(rand.NewSource(seed))
	b := spec.NewBuilder(fmt.Sprintf("off%d", seed))
	names := []string{"on0", "on1"}
	b.Group("on0", 512, 8)
	b.Group("on1", 1024, 12)
	for i := 4 + rng.Intn(4); i > 0; i-- {
		name := fmt.Sprintf("off%d", i)
		names = append(names, name)
		b.Group(name, 64*1024+1+rng.Int63n(960*1024), []int{2, 4, 8, 12, 16}[rng.Intn(5)])
	}
	b.Loop("l", 10_000+uint64(rng.Intn(50_000)))
	for _, name := range names {
		b.Read(name, float64(1+rng.Intn(3)))
	}
	var pats []sbd.Pattern
	for p := rng.Intn(4); p > 0; p-- {
		acc := map[string]int{}
		for _, name := range names {
			if rng.Intn(2) == 0 {
				acc[name] = 1 + rng.Intn(3)
			}
		}
		if len(acc) >= 2 {
			pats = append(pats, sbd.Pattern{Access: acc, Weight: uint64(100 + rng.Intn(2000))})
		}
	}
	return b.MustBuild(), pats
}

// TestAssignGolden pins the exact bytes of the assignment step: for every
// random instance (seeds 0–23), on-chip count 1–3 and in-place mode, the
// AssignContext and Greedy results — every binding's memory, member groups and
// the float64 bits of its power and area, each Cost field's bits and the
// Optimal flag, or the error text of an infeasible case, each answer first
// passing checkAssignment — and the same rows
// for the off-chip corpus (seeds 0–23, one on-chip memory) and the
// conflict-free corpus (seeds 0–23, on-chip count 3–4). Any change to the
// search order, the bound, the cost accumulation or the tie-breaking shows
// up here. Regenerate with -update only after a deliberate change to the
// assignment results.
func TestAssignGolden(t *testing.T) {
	tech := memlib.Default()
	var buf bytes.Buffer
	row := func(label string, s *spec.Spec, pats []sbd.Pattern, count int, inPlace bool) {
		p := Params{InPlace: inPlace}
		for _, mode := range []struct {
			name string
			fn   func(*spec.Spec, []sbd.Pattern, *memlib.Tech, int, Params) (*Assignment, error)
		}{{"assign", func(s *spec.Spec, pats []sbd.Pattern, tech *memlib.Tech, count int, p Params) (*Assignment, error) {
			return AssignContext(context.Background(), s, pats, tech, count, p)
		}}, {"greedy", Greedy}} {
			fmt.Fprintf(&buf, "%s count=%d inplace=%v %s", label, count, inPlace, mode.name)
			a, err := mode.fn(s, pats, tech, count, p)
			if err != nil {
				fmt.Fprintf(&buf, " error=%q\n", err.Error())
				continue
			}
			if err := checkAssignment(s, pats, tech, count, p, a); err != nil {
				t.Fatalf("%s count=%d inplace=%v %s: %v", label, count, inPlace, mode.name, err)
			}
			c := a.Cost
			fmt.Fprintf(&buf, " area=%x power=%x offpower=%x optimal=%v\n",
				math.Float64bits(c.OnChipArea), math.Float64bits(c.OnChipPower),
				math.Float64bits(c.OffChipPower), a.Optimal)
			for _, bs := range [][]Binding{a.OnChip, a.OffChip} {
				for _, b := range bs {
					fmt.Fprintf(&buf, "  %s words=%d bits=%d ports=%d power=%x area=%x groups=%s\n",
						b.Mem.Name, b.Mem.Words, b.Mem.Bits, b.Mem.Ports,
						math.Float64bits(b.Power), math.Float64bits(b.Area),
						strings.Join(b.Groups, ","))
				}
			}
		}
	}
	for seed := int64(0); seed < 24; seed++ {
		s, pats := randomInstance(seed)
		for count := 1; count <= 3; count++ {
			for _, inPlace := range []bool{false, true} {
				row(fmt.Sprintf("seed=%d", seed), s, pats, count, inPlace)
			}
		}
	}
	for seed := int64(0); seed < 24; seed++ {
		s, pats := offChipInstance(seed)
		for _, inPlace := range []bool{false, true} {
			row(fmt.Sprintf("offchip seed=%d", seed), s, pats, 1, inPlace)
		}
	}
	for seed := int64(0); seed < 24; seed++ {
		s, pats := conflictFreeInstance(seed)
		for count := 3; count <= 4; count++ {
			for _, inPlace := range []bool{false, true} {
				row(fmt.Sprintf("conflict-free seed=%d", seed), s, pats, count, inPlace)
			}
		}
	}
	checkGolden(t, "assign.golden", buf.Bytes())
}

// conflictFreeInstance builds a problem shaped like a cold spec-mode
// request after a loose-budget distribution: 12 or 13 on-chip groups of
// 128-1024 words and 4-14 bits in one loop of 2048-4095 iterations, each
// read once or twice and written half the time, and the conflict-free
// schedule's patterns, one single-access pattern per group. Deterministic
// per seed.
func conflictFreeInstance(seed int64) (*spec.Spec, []sbd.Pattern) {
	rng := rand.New(rand.NewSource(seed))
	b := spec.NewBuilder(fmt.Sprintf("free%d", seed))
	names := make([]string, 12+rng.Intn(2))
	for i := range names {
		names[i] = fmt.Sprintf("g%d", i)
		b.Group(names[i], int64(128<<uint(rng.Intn(4))), 4+2*rng.Intn(6))
	}
	iters := 2048 + uint64(rng.Intn(2048))
	b.Loop("body", iters)
	for _, n := range names {
		b.Read(n, float64(1+rng.Intn(2)))
		if rng.Intn(2) == 0 {
			b.Write(n, 1)
		}
	}
	pats := make([]sbd.Pattern, len(names))
	for i, n := range names {
		pats[i] = sbd.Pattern{Access: map[string]int{n: 1}, Weight: iters}
	}
	return b.MustBuild(), pats
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update, and reports the first differing line.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s line %d differs:\n got %s\nwant %s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s line count differs: got %d, want %d", name, len(gl), len(wl))
}
