package sbd_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/bgstruct"
	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/reuse"
	"repro/internal/sbd"
	"repro/internal/spec"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// goldenBudgets lists the budgets a loop is balanced at: the weighted
// critical path, one cycle above it and halfway to the serial schedule in
// linear mode; one cycle, the longest access and the critical path in
// pipelined mode (one cycle wraps an off-chip access onto itself).
func goldenBudgets(l *spec.Loop, groups map[string]spec.BasicGroup, p sbd.Params) []int {
	if p.Pipelined {
		maxDur := 1
		for _, a := range l.Accesses {
			if d := p.Duration(groups[a.Group]); d > maxDur {
				maxDur = d
			}
		}
		return dedupe([]int{1, maxDur, sbd.WeightedCP(l, groups, p)})
	}
	cp := sbd.WeightedCP(l, groups, p)
	sum := 0
	for _, a := range l.Accesses {
		sum += p.Duration(groups[a.Group])
	}
	return dedupe([]int{cp, cp + 1, cp + (sum-cp)/2})
}

func dedupe(bs []int) []int {
	out := bs[:0]
	for _, b := range bs {
		seen := false
		for _, o := range out {
			seen = seen || o == b
		}
		if !seen {
			out = append(out, b)
		}
	}
	return out
}

// appendGolden balances every loop of s at its golden budgets, linear and
// pipelined, with groups above onChip words off-chip, and appends one line
// per schedule: the start cycles and the exact bits of the three costs.
func appendGolden(t *testing.T, buf *bytes.Buffer, s *spec.Spec, onChip int64) {
	t.Helper()
	groups := make(map[string]spec.BasicGroup, len(s.Groups))
	for _, g := range s.Groups {
		groups[g.Name] = g
	}
	for _, pipelined := range []bool{false, true} {
		p := sbd.Params{OnChipMaxWords: onChip, Pipelined: pipelined}
		mode := "linear"
		if pipelined {
			mode = "pipelined"
		}
		for i := range s.Loops {
			l := &s.Loops[i]
			for _, b := range goldenBudgets(l, groups, p) {
				sc, err := sbd.BalanceLoop(context.Background(), l, groups, b, p)
				if err != nil {
					t.Fatalf("%s/%s %s budget %d: %v", s.Name, l.Name, mode, b, err)
				}
				fmt.Fprintf(buf, "%s/%s onchip=%d %s b=%d start=", s.Name, l.Name, onChip, mode, b)
				for j, st := range sc.Start {
					if j > 0 {
						buf.WriteByte(',')
					}
					buf.WriteString(strconv.Itoa(st))
				}
				fmt.Fprintf(buf, " cost=%016x weighted=%016x structural=%016x (%g)\n",
					math.Float64bits(sc.Cost), math.Float64bits(sc.WeightedCost),
					math.Float64bits(sc.StructuralCost), sc.Cost)
			}
		}
	}
}

// TestSchedulesGolden pins the balancer's output — every start cycle and
// the exact bits of every cost — for the 256×256 demonstrator's loops (at
// the default on-chip limit, where every group is on-chip, and at 1Ki
// words, where the three image-sized arrays move off-chip) and for 20
// seeded random loops with branches and off-chip groups, in both
// scheduling modes. Any change to placement order, tie-breaking or the
// floating-point sequence of the cost accounting shows up as a diff.
// Regenerate with -update only after a deliberate change to the schedules.
func TestSchedulesGolden(t *testing.T) {
	d, err := core.BuildDemonstrator(core.DemoConfig{Size: 256})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	appendGolden(t, &buf, d.Spec, 64*1024)
	appendGolden(t, &buf, d.Spec, 1024)
	for seed := int64(1); seed <= 20; seed++ {
		appendGolden(t, &buf, sbd.RandomSpec(seed), 64*1024)
	}
	checkGolden(t, "schedules.golden", buf.Bytes())
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

// TestDistributionsGolden pins the budget distributor's committed output on
// the specs the methodology distributes: the 256×256 demonstrator spec, its
// ridge-compacted and ridge/pyr-merged structuring variants, and the three
// layered hierarchy variants of the merged spec, each at every budget
// fraction of the linear and the pipelined Table 3 sweep, with the
// methodology's scaled sbd parameters. One line per (spec, budget, mode)
// gives the committed per-loop budgets, Used, Degraded, the exact bits of
// Cost, and the number of conflict patterns with a SHA-256 prefix of their
// FingerprintPatterns. A last block pins 24 loose-budget coldSpec
// distributions, where every loop reaches its conflict-free end.
// Regenerate with -update only after a deliberate change to the
// distributions.
func TestDistributionsGolden(t *testing.T) {
	d, err := core.BuildDemonstrator(core.DemoConfig{Size: 256})
	if err != nil {
		t.Fatal(err)
	}
	compacted, err := bgstruct.Compact(d.Spec, "ridge", 3)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := bgstruct.Merge(d.Spec, "ridge", "pyr", "pyrridge")
	if err != nil {
		t.Fatal(err)
	}
	type variant struct {
		name string
		s    *spec.Spec
	}
	variants := []variant{{"untouched", d.Spec}, {"ridge-compacted", compacted}, {"pyr-ridge-merged", merged}}
	ylocal, yhier := core.HierarchyLayers(d.Config.Size)
	for _, h := range []struct {
		name   string
		layers []reuse.Layer
	}{
		{"merged+yhier", []reuse.Layer{yhier}},
		{"merged+ylocal", []reuse.Layer{ylocal}},
		{"merged+ylocal+yhier", []reuse.Layer{ylocal, yhier}},
	} {
		plan, err := reuse.Plan("image", h.layers, d.ImageProfile, nil)
		if err != nil {
			t.Fatal(err)
		}
		applied, err := reuse.Apply(merged, plan, 8)
		if err != nil {
			t.Fatal(err)
		}
		variants = append(variants, variant{h.name, applied})
	}
	base := sbd.Params{OnChipMaxWords: core.DefaultEvalParams().ScaleTo(d.Config.Size).Tech.OnChipMaxWords}
	sweeps := []struct {
		mode  string
		fracs []float64
	}{
		{"linear", []float64{1.0, 0.95, 0.90, 0.85, 0.82, 0.80, 0.78, 0.75, 0.72, 0.70, 0.68}},
		{"pipelined", []float64{0.68, 0.60, 0.52, 0.45, 0.40, 0.34, 0.30, 0.26, 0.22}},
	}
	var buf bytes.Buffer
	for _, v := range variants {
		for _, sw := range sweeps {
			p := base
			p.Pipelined = sw.mode == "pipelined"
			p.Memo = memo.New(memo.Schedule) // shared across the sweep, as in the methodology
			for _, f := range sw.fracs {
				budget := uint64(float64(d.CycleBudget) * f)
				dist, err := sbd.DistributeContext(context.Background(), v.s, budget, p)
				if err != nil {
					t.Fatalf("%s %s budget %d: %v", v.name, sw.mode, budget, err)
				}
				fmt.Fprintf(&buf, "%s %s budget=%d loops=", v.name, sw.mode, budget)
				appendDistribution(&buf, dist)
			}
		}
	}
	// The loose-budget block: spec-mode requests shaped like the benchmark's
	// cold traffic, distributed at its 20M-cycle budget with the spec-mode
	// threshold, so every loop can reach its conflict-free end.
	for seed := int64(1); seed <= 24; seed++ {
		s := coldSpec(seed)
		const budget = 20_000_000
		dist, err := sbd.DistributeContext(context.Background(), s, budget, sbd.Params{OnChipMaxWords: 64 * 1024})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		fmt.Fprintf(&buf, "%s linear budget=%d loops=", s.Name, budget)
		appendDistribution(&buf, dist)
	}
	checkGolden(t, "distributions.golden", buf.Bytes())
}

// appendDistribution ends a distributions.golden line: the committed
// per-loop budgets, Used, Degraded, the exact bits of Cost, and the number
// of conflict patterns with a SHA-256 prefix of their FingerprintPatterns.
func appendDistribution(buf *bytes.Buffer, dist *sbd.Distribution) {
	for i, ls := range dist.Loops {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(buf, "%s:%d", ls.Loop, ls.Budget)
	}
	fp := sha256.Sum256([]byte(sbd.FingerprintPatterns(dist.Patterns)))
	fmt.Fprintf(buf, " used=%d degraded=%t cost=%016x patterns=%d/%x\n",
		dist.Used, dist.Degraded, math.Float64bits(dist.Cost), len(dist.Patterns), fp[:8])
}

// coldSpec builds a seeded spec shaped like the benchmark's cold spec-mode
// requests: one loop of 2048-4095 iterations over 12 or 13 on-chip groups,
// each read once or twice per iteration and written half the time, with no
// dependences.
func coldSpec(seed int64) *spec.Spec {
	rng := rand.New(rand.NewSource(seed))
	b := spec.NewBuilder(fmt.Sprintf("cold%d", seed))
	names := make([]string, 12+rng.Intn(2))
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
