package dtse

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bgstruct"
	"repro/internal/btpc"
	"repro/internal/core"
	"repro/internal/inplace"
	"repro/internal/looptrafo"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// buildVideoSpec is a small but non-trivial spec used across the facade
// tests: a frame-differencing workload with one big frame pair and small
// state tables.
func buildVideoSpec(t testing.TB) *Spec {
	t.Helper()
	const w, h = 176, 144 // QCIF
	b := NewSpec("viddiff")
	b.Group("cur", w*h, 8)
	b.Group("ref", w*h, 8)
	b.Group("diffstat", 256, 16)
	b.Group("thresh", 16, 8)

	b.Loop("input", w*h)
	b.Write("cur", 1)

	b.Loop("diff", w*h)
	c := b.Read("cur", 1)
	r := b.Read("ref", 1)
	tr := b.Read("thresh", 1)
	s := b.Read("diffstat", 1, c, r, tr)
	b.Write("diffstat", 1, s)
	b.Write("ref", 1, c, r)

	sp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestFacadeExplore(t *testing.T) {
	sp := buildVideoSpec(t)
	ep := DefaultParams()
	tech := *ep.Tech
	tech.OnChipMaxWords = 8 * 1024
	tech.FramePeriod = float64(176*144) / 1e6
	ep.Tech = &tech
	ep.OnChipCount = 2

	v, err := Explore(sp, uint64(18*176*144), ep)
	if err != nil {
		t.Fatal(err)
	}
	if v.Cost.OnChipArea <= 0 || v.Cost.OffChipPower <= 0 {
		t.Fatalf("degenerate cost: %+v", v.Cost)
	}
	// cur and ref must be off-chip; the state tables on-chip.
	if !strings.Contains(v.Asgn.GroupMem["cur"], "offchip") {
		t.Fatalf("cur mapped to %q, want off-chip", v.Asgn.GroupMem["cur"])
	}
	if !strings.Contains(v.Asgn.GroupMem["diffstat"], "sram") {
		t.Fatalf("diffstat mapped to %q, want on-chip", v.Asgn.GroupMem["diffstat"])
	}
	if v.Dist.Used > uint64(18*176*144) {
		t.Fatal("distribution overran the budget")
	}
}

func TestFacadeTransformsCompose(t *testing.T) {
	sp := buildVideoSpec(t)
	// Merge the two frames into a record (cur, ref are co-indexed in the
	// diff loop via their counts, not sites, so accesses just retarget).
	m, err := bgstruct.Merge(sp, "cur", "ref", "frames")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Group("frames"); !ok {
		t.Fatal("merged group missing")
	}
	// Then compact the small threshold table.
	c, err := bgstruct.Compact(m, "thresh", 2)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := c.Group("thresh")
	if g.Bits != 16 || g.Words != 8 {
		t.Fatalf("compacted thresh = %+v", g)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeHierarchyFlow(t *testing.T) {
	// Synthetic cyclic trace over 32 addresses.
	var addrs []int32
	for rep := 0; rep < 64; rep++ {
		for a := int32(0); a < 32; a++ {
			addrs = append(addrs, a)
		}
	}
	an := NewReuseStream(context.Background(), 48)
	an.Extent(32)
	an.Chunk(addrs)
	an.Close()
	prof := an.Profile()
	h, err := PlanHierarchy("cur", []Layer{{Name: "win", Words: 48}}, prof)
	if err != nil {
		t.Fatal(err)
	}
	if h.MissRatios[0] > 0.05 {
		t.Fatalf("48-word buffer on a 32-cyclic trace should mostly hit: %v", h.MissRatios)
	}
	// A layer past the stream's 48-word depth is refused, not clamped.
	_, err = PlanHierarchy("cur", []Layer{{Name: "win", Words: 12}, {Name: "lines", Words: 49}}, prof)
	if err == nil || !strings.Contains(err.Error(), `"lines"`) || !strings.Contains(err.Error(), "48-word depth") {
		t.Fatalf("layer past the depth: err %v, want one naming layer \"lines\" and the 48-word depth", err)
	}
	sp := buildVideoSpec(t)
	applied, err := ApplyHierarchy(sp, h, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := applied.Group("win"); !ok {
		t.Fatal("hierarchy layer not added")
	}
}

func TestFacadeCodecRoundTrip(t *testing.T) {
	src := SyntheticImage(96, 64, 5)
	data, stats, err := EncodeBTPC(src, CodecParams{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BitsPerPixel() <= 0 {
		t.Fatal("no bits produced")
	}
	got, err := DecodeBTPC(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !src.Equal(got) {
		t.Fatal("facade round trip failed")
	}
}

func TestFacadeRecorder(t *testing.T) {
	rec := NewRecorder()
	src := SyntheticImage(48, 48, 2)
	if _, _, err := EncodeBTPC(src, CodecParams{}, rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Arrays()) != 18 {
		t.Fatalf("%d profiled arrays, want 18", len(rec.Arrays()))
	}
}

func TestFacadeReproduceBTPCSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full methodology run skipped in -short mode")
	}
	res, err := ReproduceBTPC(DemoConfig{Size: 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Structuring) != 3 || len(res.Hierarchy) != 4 {
		t.Fatal("incomplete exploration")
	}
	if res.Final == nil {
		t.Fatal("no final organization")
	}
	// The regenerated tables must render.
	for _, s := range []string{
		res.Table1().Render(), res.Table2().Render(),
		res.Table3().Render(), res.Table4().Render(),
	} {
		if !strings.Contains(s, "mm2") {
			t.Fatal("table rendering broken")
		}
	}
}

// TestFacadeReproduceBTPCContextObserved: an observer travels as ep.Obs
// into core.RunAllContext, the engine behind ReproduceBTPC. The run records
// one run_all root with the methodology steps under it, and the telemetry
// leaves Tables 1-4 byte-equal to ReproduceBTPC's.
func TestFacadeReproduceBTPCContextObserved(t *testing.T) {
	cfg := DemoConfig{Size: 64}
	plain, err := ReproduceBTPC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := obs.NewCollector()
	o := obs.New(c)
	ep := DefaultParams()
	ep.Obs = o
	observed, err := core.RunAllContext(context.Background(), cfg, ep)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	roots := c.Find("run_all")
	if len(roots) != 1 || roots[0].Parent != 0 {
		t.Fatalf("want one run_all root span, got %d", len(roots))
	}
	for _, name := range []string{"profile", "step.structuring", "step.hierarchy",
		"step.budget", "step.allocation", "reuse.analyze"} {
		if recs := c.Find(name); len(recs) != 1 || recs[0].Parent != roots[0].ID {
			t.Fatalf("want one %q span directly under run_all, got %d", name, len(recs))
		}
	}
	for i, pair := range [][2]string{
		{plain.Table1().Render(), observed.Table1().Render()},
		{plain.Table2().Render(), observed.Table2().Render()},
		{plain.Table3().Render(), observed.Table3().Render()},
		{plain.Table4().Render(), observed.Table4().Render()},
	} {
		if pair[0] != pair[1] {
			t.Fatalf("Table %d differs with an observer:\n%s\nvs\n%s", i+1, pair[0], pair[1])
		}
	}
}

func TestFacadeLoopTransformations(t *testing.T) {
	b := NewSpec("acc")
	b.Group("g", 128, 20)
	b.Loop("l", 100)
	prev := b.Read("g", 1)
	for i := 0; i < 7; i++ {
		prev = b.Read("g", 1, prev)
	}
	s := b.MustBuild()
	out, err := looptrafo.ChainTreeify(s, "l", "g")
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalAccesses() != s.TotalAccesses() {
		t.Fatal("treeify changed totals")
	}
	reduced, log, err := ReduceMACP(s, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(log) == 0 || reduced.Validate() != nil {
		t.Fatalf("ReduceMACP: log %v", log)
	}
}

func TestFacadeSpecJSON(t *testing.T) {
	s := buildVideoSpec(t)
	var buf strings.Builder
	if err := WriteSpecJSON(s, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := spec.ReadJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalAccesses() != s.TotalAccesses() {
		t.Fatal("JSON round trip changed totals")
	}
}

func TestFacadeLifetimeReport(t *testing.T) {
	s := buildVideoSpec(t)
	if !strings.Contains(inplace.Report(s), "cur") {
		t.Fatal("lifetime report missing arrays")
	}
}

func TestFacadeWorkloads(t *testing.T) {
	for _, mk := range []func() (*Spec, WorkloadContext, error){
		func() (*Spec, WorkloadContext, error) { return workloads.MotionEstimation(64, 64, 16, 3) },
		func() (*Spec, WorkloadContext, error) { return workloads.Wavelet(128, 128, 2) },
		func() (*Spec, WorkloadContext, error) { return workloads.FIRFilter(1000, 32) },
	} {
		s, ctx, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if ctx.CycleBudget == 0 || ctx.FramePeriod <= 0 {
			t.Fatalf("degenerate context %+v", ctx)
		}
	}
}

func TestFacadeProgressiveDecode(t *testing.T) {
	src := SyntheticImage(64, 64, 8)
	data, stats, err := EncodeBTPC(src, CodecParams{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := btpc.DecodeProgressive(data, stats.TopLevel/2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.W != 64 || coarse.H != 64 {
		t.Fatal("progressive decode wrong size")
	}
	mse, _ := src.MSE(coarse)
	if mse == 0 {
		t.Fatal("half-pyramid decode should not be exact")
	}
}

func TestDefaultTechIsUsable(t *testing.T) {
	tech := DefaultParams().Tech
	m := Memory{Name: "x", Kind: 0, Words: 1024, Bits: 8, Ports: 1}
	if _, err := tech.Area(m); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeObservedExplore checks the telemetry surface of the facade: an
// Explore with EvalParams.Obs set records an evaluate span with its engine
// children into the collector sink, and obs.StatsTable renders them.
func TestFacadeObservedExplore(t *testing.T) {
	sp := buildVideoSpec(t)
	c := obs.NewCollector()
	o := obs.New(c)
	ep := DefaultParams()
	ep.Obs = o
	if _, err := Explore(sp, 20*176*144, ep); err != nil {
		t.Fatal(err)
	}
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := len(c.Find("evaluate")); n != 1 {
		t.Fatalf("got %d evaluate spans, want 1", n)
	}
	if len(c.Find("sbd.distribute")) == 0 || len(c.Find("assign")) == 0 {
		t.Fatal("engine spans missing from the trace")
	}
	if c.Counters()["core.evaluations"] != 1 {
		t.Fatalf("core.evaluations = %d, want 1", c.Counters()["core.evaluations"])
	}
	out := obs.StatsTable(c.Records())
	if !strings.Contains(out, "total (evaluate)") {
		t.Fatalf("StatsTable output missing the evaluate root:\n%s", out)
	}
}
