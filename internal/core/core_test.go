package core

import (
	"context"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/assign"
	"repro/internal/obs"
	"repro/internal/spec"
)

// fullResults runs the complete methodology once at the paper's 1024×1024
// scale and shares the result across the shape tests.
var (
	fullOnce sync.Once
	fullRes  *Results
	fullErr  error
)

func paperScaleResults(t *testing.T) *Results {
	t.Helper()
	if testing.Short() {
		t.Skip("full-scale exploration skipped in -short mode")
	}
	fullOnce.Do(func() {
		fullRes, fullErr = RunAll(DemoConfig{Size: 1024}, DefaultEvalParams())
	})
	if fullErr != nil {
		t.Fatal(fullErr)
	}
	return fullRes
}

func TestMain(m *testing.M) { os.Exit(m.Run()) }

func TestBuildDemonstratorStructure(t *testing.T) {
	d, err := BuildDemonstrator(DemoConfig{Size: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Spec.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper's 18 basic groups.
	if got := len(d.Spec.Groups); got != 18 {
		t.Fatalf("spec has %d basic groups, want 18", got)
	}
	// Three large image-sized arrays, bitwidths 2..20.
	minBits, maxBits := 64, 0
	large := 0
	for _, g := range d.Spec.Groups {
		if g.Words == 128*128 {
			large++
		}
		if g.Bits < minBits {
			minBits = g.Bits
		}
		if g.Bits > maxBits {
			maxBits = g.Bits
		}
	}
	if large != 3 {
		t.Fatalf("%d image-sized groups, want 3", large)
	}
	if minBits != 2 || maxBits != 20 {
		t.Fatalf("bitwidth range [%d,%d], want [2,20]", minBits, maxBits)
	}
	if d.CycleBudget != 20*128*128 {
		t.Fatalf("cycle budget %d, want %d", d.CycleBudget, 20*128*128)
	}
	if d.ImageProfile.Total() == 0 {
		t.Fatal("no image read trace captured")
	}
}

func TestSpecCountsMatchProfile(t *testing.T) {
	d, err := BuildDemonstrator(DemoConfig{Size: 128})
	if err != nil {
		t.Fatal(err)
	}
	// The pruned spec's per-frame access totals must reproduce the profiled
	// counts (within rounding of the per-iteration averages).
	for _, g := range d.Spec.GroupNames() {
		prof := d.Rec.Array(g).Total()
		specTotal := accessesPerFrame(d.Spec, g)
		if prof == 0 {
			t.Errorf("%s: no profiled accesses", g)
			continue
		}
		ratio := float64(specTotal) / float64(prof)
		if ratio < 0.98 || ratio > 1.02 {
			t.Errorf("%s: spec %d vs profile %d (ratio %.3f)", g, specTotal, prof, ratio)
		}
	}
}

func TestMACPFeasibleAtPaperConstraints(t *testing.T) {
	d, err := BuildDemonstrator(DemoConfig{Size: 128})
	if err != nil {
		t.Fatal(err)
	}
	ep := DefaultEvalParams().ScaleTo(128)
	rep := AnalyzeMACP(d.Spec, d.CycleBudget, ep)
	if !rep.Feasible {
		t.Fatalf("MACP %d exceeds budget %d: the paper's 'no loop transformations required' does not hold",
			rep.WeightedMACP, rep.CycleBudget)
	}
	if rep.WeightedMACP < rep.UnitMACP {
		t.Fatal("weighted MACP below unit MACP")
	}
	// The constraint must be comfortably but not trivially met (the paper's
	// design tension: ~60-90% of the budget).
	frac := float64(rep.WeightedMACP) / float64(rep.CycleBudget)
	if frac < 0.4 || frac > 0.98 {
		t.Fatalf("weighted MACP is %.0f%% of the budget; the design tension is lost", 100*frac)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	d, err := BuildDemonstrator(DemoConfig{Size: 128})
	if err != nil {
		t.Fatal(err)
	}
	ep := DefaultEvalParams().ScaleTo(128)
	a, err := EvaluateContext(context.Background(), d.Spec, d.CycleBudget, "a", ep)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvaluateContext(context.Background(), d.Spec, d.CycleBudget, "b", ep)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost {
		t.Fatalf("evaluation not deterministic: %+v vs %+v", a.Cost, b.Cost)
	}
}

// --- Paper-shape assertions (Tables 1-4, full scale) ---

func TestTable1Shape(t *testing.T) {
	r := paperScaleResults(t)
	if len(r.Structuring) != 3 {
		t.Fatalf("%d structuring variants, want 3", len(r.Structuring))
	}
	none, compacted, merged := r.Structuring[0].Cost, r.Structuring[1].Cost, r.Structuring[2].Cost
	// Off-chip power: merged < compacted < none; compaction's effect small,
	// merging's larger (the paper's qualitative finding).
	if !(merged.OffChipPower < compacted.OffChipPower && compacted.OffChipPower < none.OffChipPower) {
		t.Fatalf("off-chip ordering broken: %.1f / %.1f / %.1f",
			none.OffChipPower, compacted.OffChipPower, merged.OffChipPower)
	}
	gainCompact := none.OffChipPower - compacted.OffChipPower
	gainMerge := none.OffChipPower - merged.OffChipPower
	if gainMerge <= gainCompact {
		t.Fatalf("merging gain %.1f not above compaction gain %.1f", gainMerge, gainCompact)
	}
	// On-chip columns must not get worse.
	if merged.OnChipPower > none.OnChipPower+1e-6 || merged.OnChipArea > none.OnChipArea+1e-6 {
		t.Fatalf("merging worsened on-chip cost: %+v vs %+v", merged, none)
	}
	if r.StructChoice.Label != "ridge and pyr merged" {
		t.Fatalf("chosen structuring %q, want merging (the paper's decision)", r.StructChoice.Label)
	}
}

func TestTable2Shape(t *testing.T) {
	r := paperScaleResults(t)
	if len(r.Hierarchy) != 4 {
		t.Fatalf("%d hierarchy variants, want 4", len(r.Hierarchy))
	}
	none := r.Hierarchy[0].Cost
	yhier := r.Hierarchy[1].Cost
	ylocal := r.Hierarchy[2].Cost
	both := r.Hierarchy[3].Cost
	// Every hierarchy cuts off-chip power substantially.
	for i, c := range []struct {
		label string
		cost  float64
	}{{"yhier", yhier.OffChipPower}, {"ylocal", ylocal.OffChipPower}, {"both", both.OffChipPower}} {
		if c.cost >= none.OffChipPower*0.8 {
			t.Fatalf("variant %d (%s): off-chip %.1f not well below no-hierarchy %.1f",
				i, c.label, c.cost, none.OffChipPower)
		}
	}
	// Layer-0-only is the best hierarchy option in on-chip area, on-chip
	// power and total power — the paper's headline Table 2 result.
	if !(ylocal.OnChipArea < yhier.OnChipArea && ylocal.OnChipArea < both.OnChipArea) {
		t.Fatalf("ylocal area %.1f not minimal (yhier %.1f, both %.1f)",
			ylocal.OnChipArea, yhier.OnChipArea, both.OnChipArea)
	}
	if !(ylocal.OnChipPower < yhier.OnChipPower && ylocal.OnChipPower < both.OnChipPower) {
		t.Fatalf("ylocal on-chip power %.1f not minimal", ylocal.OnChipPower)
	}
	if !(ylocal.TotalPower() < yhier.TotalPower() && ylocal.TotalPower() < both.TotalPower() &&
		ylocal.TotalPower() < none.TotalPower()) {
		t.Fatalf("ylocal total power %.1f not minimal", ylocal.TotalPower())
	}
	// Adding layer 1 on top of layer 0 buys no off-chip power relative to
	// layer 1 alone (the paper: the extra copies nullify the gain).
	if both.OffChipPower > yhier.OffChipPower*1.05 || both.OffChipPower < yhier.OffChipPower*0.95 {
		t.Fatalf("2-layer off-chip %.1f should match yhier-only %.1f", both.OffChipPower, yhier.OffChipPower)
	}
	if r.HierChoice.Label != "Only layer 0 (ylocal)" {
		t.Fatalf("chosen hierarchy %q, want layer 0 only (the paper's decision)", r.HierChoice.Label)
	}
}

func TestTable3Shape(t *testing.T) {
	r := paperScaleResults(t)
	if len(r.Budgets) < 4 {
		t.Fatalf("only %d budget rows", len(r.Budgets))
	}
	// Extra cycles strictly increasing down the table; on-chip cost
	// non-decreasing; off-chip power never decreasing as budget tightens.
	for i := 1; i < len(r.Budgets); i++ {
		prev, cur := r.Budgets[i-1], r.Budgets[i]
		if cur.Extra <= prev.Extra {
			t.Fatalf("extra cycles not increasing: %d -> %d", prev.Extra, cur.Extra)
		}
		if cur.Cost.OnChipPower < prev.Cost.OnChipPower-1e-6 {
			t.Fatalf("on-chip power dropped when tightening: %.1f -> %.1f",
				prev.Cost.OnChipPower, cur.Cost.OnChipPower)
		}
		if cur.Cost.OffChipPower < prev.Cost.OffChipPower-1e-6 {
			t.Fatalf("off-chip power dropped when tightening: %.1f -> %.1f",
				prev.Cost.OffChipPower, cur.Cost.OffChipPower)
		}
	}
	// A substantial fraction of the budget (the paper: >10%) is sparable
	// with a modest cost increase.
	last := r.Budgets[len(r.Budgets)-1]
	first := r.Budgets[0]
	if frac := float64(last.Extra) / float64(r.Demo.CycleBudget); frac < 0.10 {
		t.Fatalf("only %.1f%% of the budget sparable, want >= 10%%", 100*frac)
	}
	if last.Cost.OnChipPower > first.Cost.OnChipPower*1.25 {
		t.Fatalf("tightening cost explosion: %.1f -> %.1f",
			first.Cost.OnChipPower, last.Cost.OnChipPower)
	}
	// Budget commitments move in whole-loop quanta: differences between
	// used budgets must be large (hundreds of thousands of cycles), not
	// single cycles.
	for i := 1; i < len(r.Budgets); i++ {
		if d := r.Budgets[i].Extra - r.Budgets[i-1].Extra; d > 0 && d < 10_000 {
			t.Fatalf("budget quantum only %d cycles; loop-level quantization lost", d)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	r := paperScaleResults(t)
	if len(r.Allocations) < 4 {
		t.Fatalf("only %d allocation rows", len(r.Allocations))
	}
	offRef := r.Allocations[0].Cost.OffChipPower
	minArea := r.Allocations[0].Cost.OnChipArea
	for i := 1; i < len(r.Allocations); i++ {
		prev, cur := r.Allocations[i-1].Cost, r.Allocations[i].Cost
		// On-chip power monotonically non-increasing with more memories.
		if cur.OnChipPower > prev.OnChipPower+1e-6 {
			t.Fatalf("on-chip power rose with more memories: %.1f -> %.1f",
				prev.OnChipPower, cur.OnChipPower)
		}
		// Off-chip power constant through the on-chip sweep.
		if cur.OffChipPower != offRef {
			t.Fatalf("off-chip power changed during allocation sweep: %.1f vs %.1f",
				cur.OffChipPower, offRef)
		}
		if cur.OnChipArea < minArea {
			minArea = cur.OnChipArea
		}
	}
	// Area eventually rises again: the largest allocation must sit above
	// the sweep's area minimum (per-memory overhead wins in the end).
	last := r.Allocations[len(r.Allocations)-1].Cost.OnChipArea
	if last <= minArea {
		t.Fatalf("area at max allocation %.1f not above sweep minimum %.1f", last, minArea)
	}
}

func TestDecisionPathMatchesPaper(t *testing.T) {
	r := paperScaleResults(t)
	if r.StructChoice.Label != "ridge and pyr merged" {
		t.Errorf("structuring decision %q", r.StructChoice.Label)
	}
	if r.HierChoice.Label != "Only layer 0 (ylocal)" {
		t.Errorf("hierarchy decision %q", r.HierChoice.Label)
	}
	if r.BudgetChoice.Extra == 0 {
		t.Error("no data-path cycles spared")
	}
	if r.Final == nil || len(r.Final.Asgn.OnChip) == 0 {
		t.Error("no final memory organization")
	}
}

func TestRenderings(t *testing.T) {
	r := paperScaleResults(t)
	for name, s := range map[string]string{
		"Table1":  r.Table1().Render(),
		"Table2":  r.Table2().Render(),
		"Table3":  r.Table3().Render(),
		"Table4":  r.Table4().Render(),
		"Figure1": r.Figure1(),
		"Figure2": r.Figure2(),
		"Figure3": r.Figure3(),
	} {
		if len(s) < 40 {
			t.Errorf("%s rendering suspiciously short: %q", name, s)
		}
	}
	if !strings.Contains(r.Figure3(), "ylocal") || !strings.Contains(r.Figure3(), "yhier") {
		t.Error("Figure 3 missing candidate layers")
	}
	if !strings.Contains(r.Figure1(), "Basic group structuring") {
		t.Error("Figure 1 missing stages")
	}
	if !strings.Contains(r.Table3().Render(), "%") {
		t.Error("Table 3 missing percentage column")
	}
}

func TestNoHierarchyNeedsMultiportImage(t *testing.T) {
	// The paper's Table 2 argument: without a hierarchy, the real-time
	// budget forces a multiport off-chip image memory.
	r := paperScaleResults(t)
	noneports := PortsOf(r.Hierarchy[0])
	if noneports["image"] < 2 {
		t.Fatalf("no-hierarchy image has %d ports, want >= 2", noneports["image"])
	}
	ylocalports := PortsOf(r.Hierarchy[2])
	if ylocalports["image"] != 1 {
		t.Fatalf("ylocal-hierarchy image has %d ports, want 1", ylocalports["image"])
	}
}

func TestHierarchyMissRatiosOrdered(t *testing.T) {
	r := paperScaleResults(t)
	full := r.Hierarchies[len(r.Hierarchies)-1]
	if len(full.MissRatios) != 2 {
		t.Fatalf("2-layer plan has %d miss ratios", len(full.MissRatios))
	}
	if full.MissRatios[0] <= full.MissRatios[1] {
		t.Fatalf("inner layer must miss more than outer: %v", full.MissRatios)
	}
	if full.MissRatios[1] > 0.6 {
		t.Fatalf("yhier miss ratio %.2f too high; line-buffer reuse lost", full.MissRatios[1])
	}
}

func TestChooseBudgetRespectsTolerance(t *testing.T) {
	r := paperScaleResults(t)
	ref := r.Budgets[0]
	choice := ChooseBudget(r.Budgets, 0.05, 0.10)
	if choice.Cost.TotalPower() > ref.Cost.TotalPower()*1.05+1e-9 {
		t.Fatalf("chosen budget power %.1f violates tolerance vs %.1f",
			choice.Cost.TotalPower(), ref.Cost.TotalPower())
	}
	// Zero tolerance must pick the reference row.
	strict := ChooseBudget(r.Budgets, 0, 0)
	if strict != ref && strict.Cost.TotalPower() > ref.Cost.TotalPower() {
		t.Fatal("zero-tolerance choice worse than reference")
	}
}

func TestHierarchyLayersScale(t *testing.T) {
	ylocal, yhier := HierarchyLayers(1024)
	if ylocal.Words != 12 {
		t.Fatalf("ylocal = %d words, want the paper's 12 registers", ylocal.Words)
	}
	if yhier.Words != 5120 {
		t.Fatalf("yhier = %d words, want the paper's ~5K", yhier.Words)
	}
	_, small := HierarchyLayers(8)
	if small.Words < 64 {
		t.Fatalf("tiny-image yhier = %d words, want clamped >= 64", small.Words)
	}
}

func TestWalkLength(t *testing.T) {
	if walkLength(0, 0.5) != 1 {
		t.Error("zero reads should give chain 1")
	}
	if walkLength(5, 0) != 1 {
		t.Error("zero fraction should give chain 1")
	}
	if got := walkLength(100, 0.01); got != 6 {
		t.Errorf("deep walk not clamped: %d", got)
	}
	if got := walkLength(2.0, 0.5); got != 2 {
		t.Errorf("walkLength(2, .5) = %d, want 2", got)
	}
}

// TestRunAllTelemetrySpans runs the full methodology with a collector
// observer and checks the span tree: one run_all root, the six methodology
// steps (plus the profiling stage) as direct children, the reuse analysis
// as a direct child beside them, engine spans
// (sbd/assign/reuse) underneath, counters populated, and the step wall
// times bounded by the end-to-end wall time.
func TestRunAllTelemetrySpans(t *testing.T) {
	c := obs.NewCollector()
	o := obs.New(c)
	ep := DefaultEvalParams()
	ep.Obs = o
	if _, err := RunAll(DemoConfig{Size: 128}, ep); err != nil {
		t.Fatal(err)
	}
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}

	roots := c.Find("run_all")
	if len(roots) != 1 {
		t.Fatalf("got %d run_all roots, want 1", len(roots))
	}
	root := roots[0]
	if root.Parent != 0 {
		t.Fatalf("run_all has parent %d", root.Parent)
	}

	steps := []string{"profile", "step.macp", "step.structuring",
		"step.hierarchy", "step.budget", "step.allocation", "step.final"}
	var stepsWallUS int64
	for _, name := range steps {
		recs := c.Find(name)
		if len(recs) != 1 {
			t.Fatalf("got %d %q spans, want 1", len(recs), name)
		}
		if recs[0].Parent != root.ID {
			t.Fatalf("%q is not a direct child of run_all", name)
		}
		stepsWallUS += recs[0].WallUS
	}
	// The steps partition the run: their wall times must not exceed the
	// end-to-end wall time (they run sequentially under the root).
	if stepsWallUS > root.WallUS {
		t.Fatalf("step wall sum %dus exceeds run_all wall %dus", stepsWallUS, root.WallUS)
	}
	// The image reuse analysis runs beside step.structuring, directly under
	// the root, outside the sequential steps.
	if recs := c.Find("reuse.analyze"); len(recs) != 1 || recs[0].Parent != root.ID {
		t.Fatalf("want one reuse.analyze span directly under run_all, got %d", len(recs))
	}

	// Engine spans must appear underneath the steps.
	for _, name := range []string{"evaluate", "sbd.distribute", "assign",
		"reuse.analyze", "reuse.plan", "profile.encode", "profile.spec"} {
		if len(c.Find(name)) == 0 {
			t.Fatalf("no %q spans recorded", name)
		}
	}
	// Every evaluate span owns one sbd.distribute and at least one assign.
	evals := c.Find("evaluate")
	byParent := make(map[uint64][]string)
	for _, r := range c.Records() {
		byParent[r.Parent] = append(byParent[r.Parent], r.Name)
	}
	for _, e := range evals {
		var nDist, nAsgn int
		for _, n := range byParent[e.ID] {
			switch n {
			case "sbd.distribute":
				nDist++
			case "assign":
				nAsgn++
			}
		}
		if nDist != 1 || nAsgn < 1 {
			t.Fatalf("evaluate span %d has %d sbd.distribute and %d assign children",
				e.ID, nDist, nAsgn)
		}
	}

	counters := c.Counters()
	for _, name := range []string{"core.evaluations", "assign.nodes",
		"sbd.balance_calls", "sbd.trials", "sbd.trials_conflict_free",
		"reuse.analyzed_accesses", "reuse.plans"} {
		if counters[name] <= 0 {
			t.Fatalf("counter %q = %d, want > 0 (have %v)", name, counters[name], counters)
		}
	}
	if got := counters["core.evaluations"]; got != int64(len(evals)) {
		t.Fatalf("core.evaluations = %d but %d evaluate spans", got, len(evals))
	}
}

// TestWeightedBest pins the allocation pick of RunAllContext: the lowest
// weighted area + power sum wins, and an exact tie goes to the smaller
// label, whatever the input order.
func TestWeightedBest(t *testing.T) {
	variant := func(label string, area, power float64) *Variant {
		return &Variant{Label: label, Cost: assign.Cost{OnChipArea: area, OnChipPower: power}}
	}
	powerHog, balanced := variant("powerHog", 1, 100), variant("balanced", 10, 10)
	for _, c := range []struct {
		name          string
		vs            []*Variant
		wArea, wPower float64
		want          string
	}{
		{"best", []*Variant{powerHog, balanced}, 1, 1, "balanced"},
		{"area only", []*Variant{powerHog, balanced}, 1, 0, "powerHog"},
		{"tie breaks on label", []*Variant{variant("zeta", 1, 1), variant("alpha", 1, 1)}, 1, 1, "alpha"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := weightedBest(c.vs, c.wArea, c.wPower); got.Label != c.want {
				t.Fatalf("weightedBest = %q, want %q", got.Label, c.want)
			}
		})
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
