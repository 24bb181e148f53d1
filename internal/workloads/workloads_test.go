package workloads

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/reuse"
	"repro/internal/spec"
)

// explore runs the full physical-memory-management stage on a workload.
func explore(t *testing.T, s interface {
	Validate() error
}, run func() (*core.Variant, error)) *core.Variant {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	v, err := run()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func paramsFor(ctx Context) core.EvalParams {
	ep := core.DefaultEvalParams()
	tech := *ep.Tech
	tech.OnChipMaxWords = ctx.OnChipMaxWords
	tech.FramePeriod = ctx.FramePeriod
	ep.Tech = &tech
	return ep
}

func TestMotionEstimationExplores(t *testing.T) {
	s, ctx, err := MotionEstimation(176, 144, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	ep := paramsFor(ctx)
	v := explore(t, s, func() (*core.Variant, error) {
		return core.EvaluateContext(context.Background(), s, ctx.CycleBudget, s.Name, ep)
	})
	// Frames off-chip, tables on-chip.
	foundOff := false
	for _, b := range v.Asgn.OffChip {
		for _, g := range b.Groups {
			if g == "cur" || g == "ref" {
				foundOff = true
			}
		}
	}
	if !foundOff {
		t.Fatal("frame arrays not off-chip")
	}
	if v.Cost.OffChipPower <= 0 {
		t.Fatal("no off-chip power for a frame-dominated workload")
	}
	// MACP must be feasible but not trivial.
	if m := dfg.MACP(s); m == 0 || m > ctx.CycleBudget {
		t.Fatalf("MACP %d vs budget %d", m, ctx.CycleBudget)
	}
}

func TestMotionEstimationHierarchyHelps(t *testing.T) {
	// A search-window copy layer in front of the reference frame must cut
	// the off-chip power — the classic ME data-reuse result.
	s, ctx, err := MotionEstimation(176, 144, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	ep := paramsFor(ctx)
	base, err := core.EvaluateContext(context.Background(), s, ctx.CycleBudget, "base", ep)
	if err != nil {
		t.Fatal(err)
	}
	// Window reuse: candidate evaluations of one block revisit almost the
	// same reference pixels; model the profile with a synthetic trace that
	// cycles over one search window per block.
	windowWords := (16 + 2*7) * (16 + 2*7)
	var addrs []int32
	for blk := 0; blk < 20; blk++ {
		base32 := int32(blk * 10_000)
		for rep := 0; rep < 10; rep++ {
			for o := 0; o < windowWords; o++ {
				addrs = append(addrs, base32+int32(o))
			}
		}
	}
	an := reuse.NewStream(context.Background(), nil, windowWords)
	an.Extent(int(addrs[len(addrs)-1]) + 1)
	an.Chunk(addrs)
	an.Close()
	prof := an.Profile()
	h, err := reuse.Plan("ref", []reuse.Layer{{Name: "window", Words: int64(windowWords)}}, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	applied, err := reuse.Apply(s, h, 8)
	if err != nil {
		t.Fatal(err)
	}
	withWin, err := core.EvaluateContext(context.Background(), applied, ctx.CycleBudget, "window", ep)
	if err != nil {
		t.Fatal(err)
	}
	if withWin.Cost.OffChipPower >= base.Cost.OffChipPower*0.6 {
		t.Fatalf("search window did not cut off-chip power: %.1f -> %.1f",
			base.Cost.OffChipPower, withWin.Cost.OffChipPower)
	}
}

func TestMotionEstimationValidation(t *testing.T) {
	if _, _, err := MotionEstimation(100, 144, 16, 7); err == nil {
		t.Error("non-divisible width accepted")
	}
	if _, _, err := MotionEstimation(176, 144, 0, 7); err == nil {
		t.Error("zero block accepted")
	}
}

func TestWaveletExplores(t *testing.T) {
	s, ctx, err := Wavelet(256, 256, 3)
	if err != nil {
		t.Fatal(err)
	}
	// One loop per level plus the input loop.
	if len(s.Loops) != 4 {
		t.Fatalf("%d loops, want 4", len(s.Loops))
	}
	// Level loops shrink by 4x.
	if s.Loops[1].Iterations != 4*s.Loops[2].Iterations {
		t.Fatalf("level iterations %d vs %d", s.Loops[1].Iterations, s.Loops[2].Iterations)
	}
	ep := paramsFor(ctx)
	v, err := core.EvaluateContext(context.Background(), s, ctx.CycleBudget, s.Name, ep)
	if err != nil {
		t.Fatal(err)
	}
	if v.Cost.TotalPower() <= 0 {
		t.Fatal("degenerate wavelet evaluation")
	}
}

func TestWaveletValidation(t *testing.T) {
	if _, _, err := Wavelet(0, 10, 2); err == nil {
		t.Error("zero width accepted")
	}
	if _, _, err := Wavelet(64, 64, 11); err == nil {
		t.Error("11 levels accepted")
	}
}

func TestFIRExplores(t *testing.T) {
	s, ctx, err := FIRFilter(48_000, 64)
	if err != nil {
		t.Fatal(err)
	}
	ep := paramsFor(ctx)
	v, err := core.EvaluateContext(context.Background(), s, ctx.CycleBudget, s.Name, ep)
	if err != nil {
		t.Fatal(err)
	}
	// All arrays are small: a fully on-chip organization.
	if len(v.Asgn.OffChip) != 0 {
		t.Fatalf("FIR arrays ended up off-chip: %+v", v.Asgn.OffChip)
	}
	if v.Cost.OffChipPower != 0 {
		t.Fatalf("off-chip power %.2f for an on-chip workload", v.Cost.OffChipPower)
	}
}

func TestFIRValidation(t *testing.T) {
	if _, _, err := FIRFilter(100, 1); err == nil {
		t.Error("single tap accepted")
	}
	if _, _, err := FIRFilter(0, 8); err == nil {
		t.Error("zero samples accepted")
	}
}

func TestWorkloadAccessArithmetic(t *testing.T) {
	s, _, err := MotionEstimation(64, 64, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	blocks := uint64((64 / 16) * (64 / 16))
	cands := uint64(7 * 7)
	// cur traffic: input writes + per-candidate reads (block² per cand).
	wantCur := uint64(64*64) + blocks*cands*256
	if got := accessesPerFrame(s, "cur"); got != wantCur {
		t.Fatalf("cur accesses = %d, want %d", got, wantCur)
	}
	if got := accessesPerFrame(s, "mv"); got != blocks {
		t.Fatalf("mv accesses = %d, want %d", got, blocks)
	}
}

func TestATMSwitchAccessArithmetic(t *testing.T) {
	shared, ctx, err := ATMSwitch("shared", true)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.CycleBudget != 34*400_000 {
		t.Fatalf("cycle budget = %d", ctx.CycleBudget)
	}
	// Every cell writes and reads its 12 payload words once.
	if got := accessesPerFrame(shared, "cellbuf"); got != 24*400_000 {
		t.Fatalf("shared cellbuf accesses = %d, want %d", got, 24*400_000)
	}
	parted, _, err := ATMSwitch("partitioned", false)
	if err != nil {
		t.Fatal(err)
	}
	// The four pools are alternatives: each sees a quarter of the cells.
	for i := 0; i < 4; i++ {
		g := "cellbuf" + string(rune('0'+i))
		if got := accessesPerFrame(parted, g); got != 6*400_000 {
			t.Fatalf("%s accesses = %d, want %d", g, got, 6*400_000)
		}
	}
	if shared.TotalAccesses() != parted.TotalAccesses() {
		t.Fatalf("organizations disagree on traffic: %d vs %d",
			shared.TotalAccesses(), parted.TotalAccesses())
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
