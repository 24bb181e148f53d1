package reuse

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/spec"
)

// profileOf streams addrs, as one chunk of the trace of the smallest array
// that holds them, through a Stream depth words deep and returns its
// profile.
func profileOf(t *testing.T, depth int, addrs []int32) *Profile {
	t.Helper()
	return streamProfile(t, context.Background(), depth, extentOf(addrs), addrs)
}

// missRatio is p.MissRatio(size), failing the test on an error.
func missRatio(t *testing.T, p *Profile, size int64) float64 {
	t.Helper()
	m, err := p.MissRatio(size)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAnalyzeEmpty(t *testing.T) {
	p := profileOf(t, 16, nil)
	if m := missRatio(t, p, 16); p.Total() != 0 || m != 0 {
		t.Fatalf("empty trace profile: total %d miss %.2f", p.Total(), m)
	}
}

func TestCyclicTraceMissBoundary(t *testing.T) {
	// Cyclic access over k distinct addresses: every non-cold access has
	// stack distance exactly k, so an LRU of size >= k hits and any
	// smaller LRU misses — the classic boundary case.
	const k = 8
	var addrs []int32
	for rep := 0; rep < 50; rep++ {
		for a := int32(0); a < k; a++ {
			addrs = append(addrs, a)
		}
	}
	p := profileOf(t, k, addrs)
	if p.Cold() != k {
		t.Fatalf("cold = %d, want %d", p.Cold(), k)
	}
	coldFrac := float64(k) / float64(len(addrs))
	if got := missRatio(t, p, k); math.Abs(got-coldFrac) > 1e-9 {
		t.Fatalf("MissRatio(%d) = %v, want only cold misses %v", k, got, coldFrac)
	}
	if got := missRatio(t, p, k-1); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("MissRatio(%d) = %v, want 1.0", k-1, got)
	}
}

func TestImmediateReuse(t *testing.T) {
	addrs := []int32{5, 5, 5, 5}
	p := profileOf(t, 1, addrs)
	if got := missRatio(t, p, 1); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("MissRatio(1) = %v, want 0.25 (one cold access)", got)
	}
}

func TestSequentialStreamAlwaysMisses(t *testing.T) {
	addrs := make([]int32, 1000)
	for i := range addrs {
		addrs[i] = int32(i)
	}
	p := profileOf(t, 64, addrs)
	if got := missRatio(t, p, 64); got != 1.0 {
		t.Fatalf("streaming MissRatio = %v, want 1.0", got)
	}
}

func TestMissRatioMonotone(t *testing.T) {
	// Sliding-window trace: each access reuses a mix of near and far
	// history; miss ratio must be non-increasing in size.
	var addrs []int32
	for i := 0; i < 2000; i++ {
		addrs = append(addrs, int32(i), int32(i/2), int32(i%37))
	}
	p := profileOf(t, 4096, addrs)
	prev := 2.0
	for _, s := range []int64{1, 2, 4, 8, 16, 64, 256, 1024, 4096} {
		m := missRatio(t, p, s)
		if m > prev+1e-12 {
			t.Fatalf("miss ratio increased at size %d: %v -> %v", s, prev, m)
		}
		if m < 0 || m > 1 {
			t.Fatalf("miss ratio %v out of range", m)
		}
		prev = m
	}
}

func TestMissRatioEdgeSizes(t *testing.T) {
	p := profileOf(t, 2, []int32{1, 2, 1, 2})
	if missRatio(t, p, 0) != 1.0 {
		t.Fatal("size 0 should always miss")
	}
}

// TestMissRatioPastDepth: a profile answers up to the depth its stream was
// started with, where a reuse from beyond the depth is a miss, and refuses
// any larger size, even on an empty trace.
func TestMissRatioPastDepth(t *testing.T) {
	// The second access to 0 has stack distance 3, beyond a depth of 2.
	p := profileOf(t, 2, []int32{0, 1, 2, 0})
	if p.far != 1 {
		t.Fatalf("far %d, want 1", p.far)
	}
	if got := missRatio(t, p, 2); got != 1.0 {
		t.Fatalf("MissRatio(2) = %v, want 1.0", got)
	}
	for _, p := range []*Profile{p, profileOf(t, 2, nil)} {
		if m, err := p.MissRatio(3); err == nil || !strings.Contains(err.Error(), "2-word depth") {
			t.Fatalf("MissRatio(3) at depth 2 = %v, %v; want an error naming the depth", m, err)
		}
	}
}

// naiveStackDistance recomputes miss counts with an O(n²) reference LRU.
func naiveMissRatio(addrs []int32, size int) float64 {
	if len(addrs) == 0 {
		return 0
	}
	var lru []int32
	misses := 0
	for _, a := range addrs {
		found := -1
		for i, v := range lru {
			if v == a {
				found = i
				break
			}
		}
		if found < 0 || found >= size {
			misses++
		}
		if found >= 0 {
			lru = append(lru[:found], lru[found+1:]...)
		}
		lru = append([]int32{a}, lru...)
	}
	return float64(misses) / float64(len(addrs))
}

// Property: the streamed analysis agrees with a naive LRU simulation, on
// small dense traces, traces at the top of a large extent and traces spread
// over one.
func TestQuickMatchesNaiveLRU(t *testing.T) {
	f := func(raw []byte, shape, sizeSeed uint8) bool {
		addrs := make([]int32, len(raw))
		for i, b := range raw {
			v := int32(b % 16)
			switch shape % 3 {
			case 0: // small dense range
				addrs[i] = v
			case 1: // the top of a large extent
				addrs[i] = 1<<16 + v*int32(1+shape/3%3)
			case 2: // spread: far apart addresses
				addrs[i] = v * 1_009
			}
		}
		p := profileOf(t, 12, addrs)
		size := int(sizeSeed)%12 + 1
		for s := 1; s <= size; s++ {
			if got, want := missRatio(t, p, int64(s)), naiveMissRatio(addrs, s); math.Abs(got-want) >= 1e-9 {
				t.Logf("trace %v size %d: MissRatio %v, naive LRU %v", addrs, s, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}

func imageSpec(t *testing.T) *spec.Spec {
	t.Helper()
	b := spec.NewBuilder("img")
	b.Group("image", 1024*1024, 8)
	b.Group("small", 256, 8)
	b.Loop("body", 1000)
	r1 := b.Read("image", 1)
	r2 := b.Read("image", 1)
	r3 := b.Read("image", 0.5)
	b.Read("small", 1, r1, r2, r3)
	b.Loop("input", 1)
	b.Write("image", 1024*1024)
	return b.MustBuild()
}

func TestPlanAndApplyTwoLayers(t *testing.T) {
	s := imageSpec(t)
	// Synthetic profile: cyclic over 64 addresses gives miss boundary 64.
	var addrs []int32
	for rep := 0; rep < 100; rep++ {
		for a := int32(0); a < 64; a++ {
			addrs = append(addrs, a)
		}
	}
	prof := profileOf(t, 128, addrs)
	h, err := Plan("image", []Layer{{"ylocal", 12}, {"yhier", 128}}, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.MissRatios[0] <= h.MissRatios[1] {
		t.Fatalf("inner layer should miss more: %v", h.MissRatios)
	}
	out, err := Apply(s, h, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	// Reads redirected: ylocal carries the original 2.5 reads/iter.
	if got := accessesPerFrame(out, "ylocal"); got == 0 {
		t.Fatal("no accesses on inner layer")
	}
	ylocalReads := float64(accessesPerFrame(out, "ylocal"))
	// ylocal gets 2.5 redirected reads + copy writes at miss(12)=1.0:
	// 2.5 + 2.5 = 5 per iter → 5000.
	if math.Abs(ylocalReads-5000) > 1 {
		t.Fatalf("ylocal accesses = %v, want ~5000", ylocalReads)
	}
	// Backing image: input writes + copy reads at miss(128), which is past
	// the 64-address cycle and counts only cold ≈ 64/6400 = 1%.
	imgAcc := float64(accessesPerFrame(out, "image"))
	want := 1024*1024 + 2.5*0.01*1000
	if math.Abs(imgAcc-want)/want > 0.05 {
		t.Fatalf("image accesses = %v, want ~%v", imgAcc, want)
	}
	// Original spec untouched.
	if _, ok := s.Group("ylocal"); ok {
		t.Fatal("Apply mutated its input")
	}
}

func TestApplySingleLayer(t *testing.T) {
	s := imageSpec(t)
	var addrs []int32
	for rep := 0; rep < 10; rep++ {
		for a := int32(0); a < 16; a++ {
			addrs = append(addrs, a)
		}
	}
	prof := profileOf(t, 32, addrs)
	h, err := Plan("image", []Layer{{"buf", 32}}, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Apply(s, h, 8)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := out.Group("buf")
	if !ok || g.Words != 32 || g.Bits != 8 {
		t.Fatalf("buf group = %+v, %v", g, ok)
	}
	// miss(32) on a 16-cycle trace = cold only = 16/160 = 10%.
	// image copy reads = 2.5 × 0.1 × 1000 = 250 + 1M input writes.
	imgAcc := accessesPerFrame(out, "image")
	if imgAcc < 1024*1024+200 || imgAcc > 1024*1024+300 {
		t.Fatalf("image accesses = %d, want 1M + ~250", imgAcc)
	}
}

func TestApplyNoHierarchyIsClone(t *testing.T) {
	s := imageSpec(t)
	h := &Hierarchy{Array: "image"}
	out, err := Apply(s, h, 8)
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalAccesses() != s.TotalAccesses() {
		t.Fatal("no-hierarchy apply changed the spec")
	}
}

func TestPlanErrors(t *testing.T) {
	prof := profileOf(t, 64, []int32{1, 2, 3})
	if _, err := Plan("x", []Layer{{"a", 64}, {"b", 32}}, prof, nil); err == nil {
		t.Fatal("non-increasing layer sizes accepted")
	}
	_, err := Plan("x", []Layer{{"a", 16}, {"b", 65}}, prof, nil)
	if err == nil || !strings.Contains(err.Error(), `"b"`) || !strings.Contains(err.Error(), "64-word depth") {
		t.Fatalf("layer past the depth: err %v, want one naming layer \"b\" and the 64-word depth", err)
	}
}

func TestApplyErrors(t *testing.T) {
	s := imageSpec(t)
	prof := profileOf(t, 64, []int32{1, 2, 3})
	h, err := Plan("ghost", []Layer{{"a", 64}}, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(s, h, 8); err == nil {
		t.Fatal("unknown array accepted")
	}
	h2, _ := Plan("image", []Layer{{"small", 64}}, prof, nil)
	if _, err := Apply(s, h2, 8); err == nil {
		t.Fatal("layer name collision accepted")
	}
}

func TestDescribe(t *testing.T) {
	h := &Hierarchy{Array: "image"}
	if h.Describe() != "image: no hierarchy" {
		t.Fatalf("Describe = %q", h.Describe())
	}
	h2 := &Hierarchy{
		Array:      "image",
		Layers:     []Layer{{"ylocal", 12}, {"yhier", 5120}},
		MissRatios: []float64{0.4, 0.05},
	}
	d := h2.Describe()
	if d == "" || d == "image: no hierarchy" {
		t.Fatalf("Describe = %q", d)
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
