package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/assign"
	"repro/internal/obs"
	"repro/internal/sbd"
	"repro/internal/spec"
)

var (
	ablDemoOnce sync.Once
	ablDemo     *Demonstrator
	ablErr      error
)

// ablationDemo shares a small-scale demonstrator across ablation tests.
func ablationDemo(t *testing.T) *Demonstrator {
	t.Helper()
	ablDemoOnce.Do(func() {
		ablDemo, ablErr = BuildDemonstrator(DemoConfig{Size: 128})
	})
	if ablErr != nil {
		t.Fatal(ablErr)
	}
	return ablDemo
}

func TestStripBranches(t *testing.T) {
	d := ablationDemo(t)
	s := StripBranches(d.Spec)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, l := range s.Loops {
		for _, a := range l.Accesses {
			if a.Branch != "" {
				t.Fatalf("branch tag %q survived stripping", a.Branch)
			}
		}
	}
	// Access volumes unchanged: stripping only removes exclusivity.
	if s.TotalAccesses() != d.Spec.TotalAccesses() {
		t.Fatal("stripping changed access counts")
	}
	// The original still has branches.
	found := false
	for _, l := range d.Spec.Loops {
		for _, a := range l.Accesses {
			if a.Branch != "" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("demonstrator spec has no branch tags at all")
	}
}

var (
	ablStudyOnce sync.Once
	ablStudy     []*AblationResult
	ablStudyErr  error
)

// ablationStudy runs Ablations once on the shared demonstrator; the
// direction tests each read their study from it.
func ablationStudy(t *testing.T) []*AblationResult {
	t.Helper()
	d := ablationDemo(t)
	ablStudyOnce.Do(func() {
		ablStudy, ablStudyErr = Ablations(context.Background(), d, DefaultEvalParams().ScaleTo(128))
	})
	if ablStudyErr != nil {
		t.Fatal(ablStudyErr)
	}
	return ablStudy
}

func TestAblationBranchExclusivityDirection(t *testing.T) {
	res := ablationStudy(t)[0]
	// Without exclusivity the pipeline either fails outright (budget below
	// the inflated MACP / infeasible allocation) or costs strictly more.
	if res.WithoutErr != nil {
		t.Logf("ablated pipeline failed as expected: %v", res.WithoutErr)
		return
	}
	if res.Without.Cost.TotalPower() <= res.With.Cost.TotalPower() &&
		res.Without.Cost.OnChipArea <= res.With.Cost.OnChipArea {
		t.Fatalf("removing branch exclusivity did not hurt: with %+v without %+v",
			res.With.Cost, res.Without.Cost)
	}
}

func TestAblationStructuralCostDirection(t *testing.T) {
	res := ablationStudy(t)[1]
	if res.WithoutErr != nil {
		t.Fatalf("ablation failed: %v", res.WithoutErr)
	}
	withPorts := sbd.RequiredPorts(res.With.Dist.Patterns)
	withoutPorts := sbd.RequiredPorts(res.Without.Dist.Patterns)
	// Without the structural term, some group is allowed a higher port
	// demand (or at best the same — then power must not be better).
	worse := false
	for g, p := range withoutPorts {
		if p > withPorts[g] {
			worse = true
		}
	}
	if !worse && res.Without.Cost.TotalPower() < res.With.Cost.TotalPower()-1e-6 {
		t.Fatalf("structural cost made things worse: with %+v without %+v",
			res.With.Cost, res.Without.Cost)
	}
	// The headline: image must stay low-port with the term enabled.
	if withPorts["image"] > 2 {
		t.Fatalf("image needs %d ports even with the structural term", withPorts["image"])
	}
}

func TestAblationGreedyAssignment(t *testing.T) {
	res := ablationStudy(t)[2]
	if res.WithoutErr != nil {
		t.Fatalf("greedy assignment failed: %v", res.WithoutErr)
	}
	optObj := res.With.Cost.OnChipPower + 0.3*res.With.Cost.OnChipArea
	grObj := res.Without.Cost.OnChipPower + 0.3*res.Without.Cost.OnChipArea
	if optObj > grObj+1e-9 {
		t.Fatalf("optimal assignment (%.2f) worse than greedy (%.2f)", optObj, grObj)
	}
}

func TestAblationInPlaceOnBTPC(t *testing.T) {
	res := ablationStudy(t)[3]
	// In-place may only help, never hurt.
	if res.With.Cost.OnChipArea > res.Without.Cost.OnChipArea+1e-9 {
		t.Fatalf("in-place increased area: %.2f vs %.2f",
			res.With.Cost.OnChipArea, res.Without.Cost.OnChipArea)
	}
	// The honest expectation: BTPC's arrays are frame-long-lived, so the
	// savings are small (< 5% of area).
	delta := res.Without.Cost.OnChipArea - res.With.Cost.OnChipArea
	if delta > 0.05*res.Without.Cost.OnChipArea {
		t.Logf("note: in-place saved %.2f mm² on BTPC (more than expected)", delta)
	}
}

// TestAblationsShareOneBaseline: the study evaluates its baseline once and
// reuses its schedules. At 64², four evaluations run (the baseline and
// the three varied pipelines) where four separate studies ran six, and
// the balance calls stay below the 617 those separate studies made.
func TestAblationsShareOneBaseline(t *testing.T) {
	d, err := BuildDemonstrator(DemoConfig{Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	ep := DefaultEvalParams().ScaleTo(64)
	ep.Obs = o
	if _, err := Ablations(context.Background(), d, ep); err != nil {
		t.Fatal(err)
	}
	c := o.Snapshot().Counters
	if got := c["core.evaluations"]; got != 4 {
		t.Errorf("core.evaluations = %d, want 4", got)
	}
	if got := c["sbd.balance_calls"]; got == 0 || got >= 617 {
		t.Errorf("sbd.balance_calls = %d, want in (0, 617)", got)
	}
}

// TestAblationsMatchIndependentEvaluations: every With and Without cost of
// the study equals an uncached evaluation, search or greedy assignment of
// the same problem posed on its own.
func TestAblationsMatchIndependentEvaluations(t *testing.T) {
	d, err := BuildDemonstrator(DemoConfig{Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ep := DefaultEvalParams().ScaleTo(64)
	got, err := Ablations(ctx, d, ep)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(s *spec.Spec, ep EvalParams) assign.Cost {
		t.Helper()
		v, err := EvaluateContext(ctx, s, d.CycleBudget, "reference", ep)
		if err != nil {
			t.Fatal(err)
		}
		return v.Cost
	}
	base := eval(d.Spec, ep)
	noStructural := ep
	noStructural.structuralWeight = -1
	withInPlace := ep
	withInPlace.InPlace = true
	dist, err := sbd.DistributeContext(ctx, d.Spec, d.CycleBudget, ep.sbdParams())
	if err != nil {
		t.Fatal(err)
	}
	pats := sbd.PrunePatterns(dist.Patterns)
	opt, err := assign.AssignContext(ctx, d.Spec, pats, ep.Tech, 8, ep.assignParams())
	if err != nil {
		t.Fatal(err)
	}
	gr, err := assign.Greedy(d.Spec, pats, ep.Tech, 8, ep.assignParams())
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]assign.Cost{
		{base, eval(StripBranches(d.Spec), ep)},
		{base, eval(d.Spec, noStructural)},
		{opt.Cost, gr.Cost},
		{eval(d.Spec, withInPlace), base},
	}
	if len(got) != len(want) {
		t.Fatalf("%d studies, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.WithoutErr != nil {
			t.Fatalf("%s: %v", r.Name, r.WithoutErr)
		}
		if r.With.Cost != want[i][0] || r.Without.Cost != want[i][1] {
			t.Errorf("%s: with %+v without %+v, want %+v and %+v",
				r.Name, r.With.Cost, r.Without.Cost, want[i][0], want[i][1])
		}
	}
}

// TestOrderingsRobustToTechnologyScaling validates the paper's central
// methodological claim: the cost models "will only affect the absolute cost
// figures, and not the relative comparisons". We perturb the on-chip
// technology (process shrinks and a pessimistic bloat) and check that the
// Table 1 and Table 2 decisions survive.
func TestOrderingsRobustToTechnologyScaling(t *testing.T) {
	d := ablationDemo(t)
	for _, scale := range []struct {
		name         string
		area, energy float64
	}{
		{"shrink-0.5um", 0.5, 0.6},
		{"shrink-0.35um", 0.25, 0.4},
		{"bloat", 1.6, 1.4},
	} {
		ep := DefaultEvalParams()
		ep.Tech = ep.Tech.Scale(scale.area, scale.energy)
		ep = ep.ScaleTo(128)

		sv, err := ExploreStructuringContext(context.Background(), d, ep)
		if err != nil {
			t.Fatalf("%s: %v", scale.name, err)
		}
		if !(sv[2].Cost.OffChipPower < sv[1].Cost.OffChipPower &&
			sv[1].Cost.OffChipPower < sv[0].Cost.OffChipPower) {
			t.Errorf("%s: Table 1 ordering broke: %.1f / %.1f / %.1f", scale.name,
				sv[0].Cost.OffChipPower, sv[1].Cost.OffChipPower, sv[2].Cost.OffChipPower)
		}

		hv, _, err := ExploreHierarchyContext(context.Background(), sv[2].Spec, d, ep)
		if err != nil {
			t.Fatalf("%s: %v", scale.name, err)
		}
		for i := 1; i < 4; i++ {
			if hv[i].Cost.OffChipPower >= hv[0].Cost.OffChipPower {
				t.Errorf("%s: hierarchy variant %d no longer cuts off-chip power", scale.name, i)
			}
		}
	}
}

// TestPipelinedSweepShowsOffChipJump: the paper's Table 3 shows the
// off-chip organization getting more expensive at the tightest budget
// (98.1 -> 138.7 mW). That regime needs cross-iteration overlap; with the
// software-pipelining extension enabled, the jump reproduces.
func TestPipelinedSweepShowsOffChipJump(t *testing.T) {
	if testing.Short() {
		t.Skip("pipelined sweep skipped in -short mode")
	}
	d := ablationDemo(t)
	ep := DefaultEvalParams().ScaleTo(128)
	sv, err := ExploreStructuringContext(context.Background(), d, ep)
	if err != nil {
		t.Fatal(err)
	}
	hv, _, err := ExploreHierarchyContext(context.Background(), sv[2].Spec, d, ep)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := ExploreBudgetsPipelinedContext(context.Background(), hv[2].Spec, d.CycleBudget, ep)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 3 {
		t.Fatalf("only %d pipelined rows", len(pts))
	}
	first := pts[0].Cost
	last := pts[len(pts)-1].Cost
	if last.OffChipPower <= first.OffChipPower*1.1 {
		t.Fatalf("no off-chip jump at the tightest interval: %.1f -> %.1f",
			first.OffChipPower, last.OffChipPower)
	}
	if last.OnChipPower <= first.OnChipPower {
		t.Fatalf("on-chip cost did not climb when tightening: %.1f -> %.1f",
			first.OnChipPower, last.OnChipPower)
	}
	// Monotone off-chip power as the interval tightens.
	for i := 1; i < len(pts); i++ {
		if pts[i].Cost.OffChipPower < pts[i-1].Cost.OffChipPower-1e-6 {
			t.Fatalf("off-chip power dropped when tightening: %.1f -> %.1f",
				pts[i-1].Cost.OffChipPower, pts[i].Cost.OffChipPower)
		}
	}
}

// TestShapesRobustToInputSeed: the profiled counts are data-dependent, so
// the qualitative conclusions must survive different input images.
func TestShapesRobustToInputSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short mode")
	}
	for _, seed := range []uint64{2, 3} {
		d, err := BuildDemonstrator(DemoConfig{Size: 128, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ep := DefaultEvalParams().ScaleTo(128)
		sv, err := ExploreStructuringContext(context.Background(), d, ep)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !(sv[2].Cost.OffChipPower < sv[0].Cost.OffChipPower) {
			t.Errorf("seed %d: merging no longer wins off-chip (%.1f vs %.1f)",
				seed, sv[2].Cost.OffChipPower, sv[0].Cost.OffChipPower)
		}
		hv, _, err := ExploreHierarchyContext(context.Background(), sv[2].Spec, d, ep)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := 1; i < 4; i++ {
			if hv[i].Cost.OffChipPower >= hv[0].Cost.OffChipPower {
				t.Errorf("seed %d: hierarchy %d no longer cuts off-chip power", seed, i)
			}
		}
	}
}

// TestLossyProfileExplores: the methodology also runs on a lossy-configured
// demonstrator (different data-dependent access counts).
func TestLossyProfileExplores(t *testing.T) {
	d, err := BuildDemonstrator(DemoConfig{Size: 128, Quant: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Spec.Validate(); err != nil {
		t.Fatal(err)
	}
	ep := DefaultEvalParams().ScaleTo(128)
	v, err := EvaluateContext(context.Background(), d.Spec, d.CycleBudget, "lossy", ep)
	if err != nil {
		t.Fatal(err)
	}
	if v.Cost.TotalPower() <= 0 {
		t.Fatal("degenerate lossy evaluation")
	}
}

// TestRunAllDeterministic: the whole exploration (including the parallel
// sweeps) must be byte-for-byte reproducible — the property EXPERIMENTS.md
// relies on.
func TestRunAllDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("double full run skipped in -short mode")
	}
	a, err := RunAll(DemoConfig{Size: 128}, DefaultEvalParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAll(DemoConfig{Size: 128}, DefaultEvalParams())
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]string{
		"Table1":  {a.Table1().Render(), b.Table1().Render()},
		"Table2":  {a.Table2().Render(), b.Table2().Render()},
		"Table3":  {a.Table3().Render(), b.Table3().Render()},
		"Table4":  {a.Table4().Render(), b.Table4().Render()},
		"Figure1": {a.Figure1(), b.Figure1()},
		"Figure3": {a.Figure3(), b.Figure3()},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s differs between identical runs:\n%s\nvs\n%s", name, pair[0], pair[1])
		}
	}
}

func TestInPlaceReportRenders(t *testing.T) {
	d := ablationDemo(t)
	r := InPlaceReport(d.Spec)
	for _, w := range []string{"image", "birth", "death"} {
		if !strings.Contains(r, w) {
			t.Fatalf("lifetime report missing %q", w)
		}
	}
}
