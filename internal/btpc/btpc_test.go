package btpc

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/img"
	"repro/internal/trace"
)

func TestLosslessRoundTripSynthetic(t *testing.T) {
	for _, size := range []struct{ w, h int }{
		{64, 64}, {63, 61}, {128, 32}, {16, 16}, {1, 1}, {5, 3}, {256, 7},
	} {
		src := img.Synthetic(size.w, size.h, 7)
		data, stats, err := Encode(src, Params{}, nil)
		if err != nil {
			t.Fatalf("%dx%d: encode: %v", size.w, size.h, err)
		}
		got, err := Decode(data, nil)
		if err != nil {
			t.Fatalf("%dx%d: decode: %v", size.w, size.h, err)
		}
		if !src.Equal(got) {
			t.Fatalf("%dx%d: lossless round trip not identical", size.w, size.h)
		}
		if stats.BitsTotal != len(data)*8 && stats.BitsTotal > len(data)*8 {
			t.Fatalf("%dx%d: stats bits %d inconsistent with %d bytes",
				size.w, size.h, stats.BitsTotal, len(data))
		}
	}
}

func TestLosslessRoundTripContentTypes(t *testing.T) {
	cases := map[string]*img.Gray{
		"gradient": img.Gradient(96, 96),
		"noise":    img.Noise(96, 96, 3),
		"flat":     img.Flat(96, 96, 200),
		"zero":     img.Flat(96, 96, 0),
		"max":      img.Flat(96, 96, 255),
	}
	for name, src := range cases {
		data, _, err := Encode(src, Params{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := Decode(data, nil)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !src.Equal(got) {
			t.Fatalf("%s: round trip not identical", name)
		}
	}
}

func TestCompressionOnStructuredContent(t *testing.T) {
	src := img.Gradient(128, 128)
	data, stats, err := Encode(src, Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bpp := float64(len(data)*8) / float64(128*128)
	if bpp > 4.0 {
		t.Fatalf("gradient compresses to %.2f bpp, want <= 4", bpp)
	}
	if stats.BitsPerPixel() > 4.0 {
		t.Fatalf("stats bpp %.2f inconsistent", stats.BitsPerPixel())
	}
}

func TestNoiseDoesNotExplode(t *testing.T) {
	src := img.Noise(64, 64, 9)
	data, _, err := Encode(src, Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bpp := float64(len(data)*8) / float64(64*64)
	// Incompressible content may expand slightly but must stay bounded.
	if bpp > 11.0 {
		t.Fatalf("noise coded at %.2f bpp, want <= 11", bpp)
	}
}

func TestLossyQualityAndDeterminism(t *testing.T) {
	src := img.Synthetic(96, 96, 21)
	var prevMSE float64 = -1
	for _, q := range []int{2, 4, 8, 16} {
		data, _, err := Encode(src, Params{Quant: q}, nil)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		got, err := Decode(data, nil)
		if err != nil {
			t.Fatalf("q=%d: decode: %v", q, err)
		}
		mse, err := src.MSE(got)
		if err != nil {
			t.Fatal(err)
		}
		// Quantization error per pixel is bounded by ~(q/2)^2 at prediction
		// sites; allow slack for error propagation through predictions.
		bound := float64(q*q) * 2
		if mse > bound {
			t.Fatalf("q=%d: MSE %.1f exceeds bound %.1f", q, mse, bound)
		}
		if mse < prevMSE {
			t.Logf("q=%d: MSE %.2f below previous %.2f (allowed but notable)", q, mse, prevMSE)
		}
		prevMSE = mse
	}
}

func TestLossyBeatsLosslessRate(t *testing.T) {
	src := img.Synthetic(128, 128, 5)
	lossless, _, err := Encode(src, Params{Quant: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lossy, _, err := Encode(src, Params{Quant: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lossy) >= len(lossless) {
		t.Fatalf("lossy (%d bytes) not smaller than lossless (%d bytes)",
			len(lossy), len(lossless))
	}
}

func TestEncodeDeterministic(t *testing.T) {
	src := img.Synthetic(64, 64, 13)
	a, _, err := Encode(src, Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Encode(src, Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("non-deterministic encode length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic encode at byte %d", i)
		}
	}
}

func TestParamsValidation(t *testing.T) {
	src := img.Flat(8, 8, 1)
	if _, _, err := Encode(src, Params{Quant: -1}, nil); err == nil {
		t.Error("negative quant accepted")
	}
	if _, _, err := Encode(src, Params{Quant: 65}, nil); err == nil {
		t.Error("huge quant accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	src := img.Synthetic(32, 32, 1)
	data, _, err := Encode(src, Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       nil,
		"bad magic":   append([]byte{'X', 'Y'}, data[2:]...),
		"header only": data[:4],
		"truncated":   data[:len(data)/2],
	}
	for name, d := range cases {
		if _, err := Decode(d, nil); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	src := img.Synthetic(64, 64, 2)
	_, stats, err := Encode(src, Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var coded uint64
	for _, c := range stats.SymbolsPerCtx {
		coded += c
	}
	want := uint64(64*64 - stats.TopPixels)
	if coded != want {
		t.Fatalf("coded symbols %d, want %d (pixels minus top)", coded, want)
	}
	if stats.TopLevel <= 0 {
		t.Fatalf("TopLevel = %d, want > 0 for a 64x64 image", stats.TopLevel)
	}
	// The synthetic image has flat regions, edges and texture: several
	// contexts must actually be used.
	used := 0
	for _, c := range stats.SymbolsPerCtx {
		if c > 0 {
			used++
		}
	}
	if used < 3 {
		t.Fatalf("only %d contexts used, want >= 3", used)
	}
}

func TestLatticeCoversEveryPixelOnce(t *testing.T) {
	for _, dims := range []struct{ w, h int }{{16, 16}, {13, 9}, {32, 17}} {
		w, h := dims.w, dims.h
		tt := topT(w, h)
		seen := make([]int, w*h)
		step := 1 << tt
		for y := 0; y < h; y += step {
			for x := 0; x < w; x += step {
				seen[y*w+x]++
			}
		}
		for k := 2*tt - 1; k >= 0; k-- {
			forEachLatticePixel(w, h, k, func(x, y int) { seen[y*w+x]++ })
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("%dx%d: pixel %d visited %d times", w, h, i, c)
			}
		}
	}
}

func TestTopT(t *testing.T) {
	cases := []struct{ w, h, want int }{
		{1024, 1024, 8},
		{64, 64, 4},
		{16, 16, 2},
		{4, 4, 0},
		{3, 3, 0},
		{1024, 16, 2}, // limited by the short dimension
	}
	for _, c := range cases {
		if got := topT(c.w, c.h); got != c.want {
			t.Errorf("topT(%d,%d) = %d, want %d", c.w, c.h, got, c.want)
		}
	}
}

func TestLevelSizesSumToImage(t *testing.T) {
	for _, d := range []struct{ w, h int }{{64, 64}, {33, 17}, {128, 96}} {
		top, levels := LevelSizes(d.w, d.h)
		sum := top
		for _, n := range levels {
			sum += n
		}
		if sum != d.w*d.h {
			t.Fatalf("%dx%d: top %d + levels %v = %d, want %d",
				d.w, d.h, top, levels, sum, d.w*d.h)
		}
		// Finer levels hold more pixels (roughly doubling).
		for k := 0; k+1 < len(levels); k++ {
			if levels[k] < levels[k+1] {
				t.Fatalf("%dx%d: level %d (%d px) smaller than level %d (%d px)",
					d.w, d.h, k, levels[k], k+1, levels[k+1])
			}
		}
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	for q := -255; q <= 255; q++ {
		s := zigzag(q)
		if s < 0 || s >= maxErrIdx {
			t.Fatalf("zigzag(%d) = %d out of range", q, s)
		}
		if got := unzigzag(s); got != q {
			t.Fatalf("unzigzag(zigzag(%d)) = %d", q, got)
		}
	}
}

func TestZigzagIsBijection(t *testing.T) {
	seen := make(map[int]bool)
	for q := -255; q <= 255; q++ {
		s := zigzag(q)
		if seen[s] {
			t.Fatalf("zigzag collision at symbol %d", s)
		}
		seen[s] = true
	}
}

func TestProfiledBasicGroups(t *testing.T) {
	rec := trace.NewRecorder()
	src := img.Synthetic(64, 64, 4)
	if _, _, err := Encode(src, Params{}, rec); err != nil {
		t.Fatal(err)
	}
	// The paper's 18 basic groups must all appear in the profile.
	want := []string{"image", "pyr", "ridge", "qtab", "iqtab", "hist"}
	for i := 0; i < NumContexts; i++ {
		want = append(want, fmt.Sprintf("htree%d", i), fmt.Sprintf("hweight%d", i))
	}
	if len(want) != 18 {
		t.Fatalf("test setup: %d groups listed, want 18", len(want))
	}
	for _, name := range want {
		if rec.Array(name).Total() == 0 {
			t.Errorf("basic group %q has no recorded accesses", name)
		}
	}
	n := uint64(64 * 64)
	im := rec.Array("image")
	// image: 1 write per pixel at load, ~1 read per pixel for the actual
	// value, plus up to 4 neighbour reads for every predicted pixel.
	if im.Writes != n {
		t.Errorf("image writes = %d, want %d", im.Writes, n)
	}
	if im.Reads < 3*n || im.Reads > 6*n {
		t.Errorf("image reads = %d, want within [3n, 6n] = [%d, %d]", im.Reads, 3*n, 6*n)
	}
	// pyr and ridge: 1 write per pixel and ~1 read per predicted pixel.
	for _, name := range []string{"pyr", "ridge"} {
		c := rec.Array(name)
		if c.Writes != n {
			t.Errorf("%s writes = %d, want %d", name, c.Writes, n)
		}
		if c.Reads == 0 || c.Reads > 2*n {
			t.Errorf("%s reads = %d, want within (0, 2n]", name, c.Reads)
		}
	}
	// The image array must dominate, as the paper's Table 2 step assumes.
	if im.Total() <= rec.Array("pyr").Total() {
		t.Errorf("image accesses (%d) do not dominate pyr (%d)",
			im.Total(), rec.Array("pyr").Total())
	}
}

func TestProfileScopes(t *testing.T) {
	rec := trace.NewRecorder()
	src := img.Synthetic(32, 32, 4)
	if _, _, err := Encode(src, Params{}, rec); err != nil {
		t.Fatal(err)
	}
	if c := rec.ArrayScope("image", "input"); c.Writes != 32*32 {
		t.Fatalf("input-scope image writes = %d, want %d", c.Writes, 32*32)
	}
	if c := rec.ArrayScope("image", "enc/level0"); c.Reads == 0 {
		t.Fatal("no image reads attributed to enc/level0")
	}
	if c := rec.ArrayScope("image", "enc/top"); c.Reads == 0 {
		t.Fatal("no image reads attributed to enc/top")
	}
}

func TestLossyRoundTripWithProfiling(t *testing.T) {
	// Profiling must not alter the bit stream.
	src := img.Synthetic(48, 48, 6)
	plain, _, err := Encode(src, Params{Quant: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	profiled, _, err := Encode(src, Params{Quant: 4}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(profiled) {
		t.Fatalf("profiled stream length differs: %d vs %d", len(plain), len(profiled))
	}
	for i := range plain {
		if plain[i] != profiled[i] {
			t.Fatalf("profiled stream differs at byte %d", i)
		}
	}
	// And the decoder accepts it with a recorder attached.
	if _, err := Decode(profiled, trace.NewRecorder()); err != nil {
		t.Fatal(err)
	}
}

func TestOversizeImageRejected(t *testing.T) {
	// Construct a header-level failure without allocating a 65536-wide
	// image: Encode checks dimensions before anything else.
	g := &img.Gray{W: 70000, H: 1, Pix: make([]uint8, 70000)}
	if _, _, err := Encode(g, Params{}, nil); err == nil {
		t.Fatal("oversize image accepted")
	}
}

func TestProgressiveDecodeQualityLadder(t *testing.T) {
	src := img.Synthetic(128, 128, 9)
	data, stats, err := Encode(src, Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// stopLevel 0 must match the full decode exactly.
	full, err := Decode(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := DecodeProgressive(data, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Equal(p0) {
		t.Fatal("DecodeProgressive(0) differs from Decode")
	}
	// Decoding fewer levels must degrade quality monotonically (allowing
	// tiny non-monotonic noise between adjacent levels).
	prevMSE := -1.0
	for stop := 0; stop <= stats.TopLevel; stop += 2 {
		g, err := DecodeProgressive(data, stop, nil)
		if err != nil {
			t.Fatalf("stop %d: %v", stop, err)
		}
		mse, err := src.MSE(g)
		if err != nil {
			t.Fatal(err)
		}
		if mse < prevMSE-1.0 {
			t.Fatalf("quality improved with fewer levels: stop %d MSE %.1f < %.1f",
				stop, mse, prevMSE)
		}
		prevMSE = mse
	}
	if prevMSE <= 0 {
		t.Fatal("coarsest progressive decode should not be exact")
	}
	// Even the coarsest reconstruction must be a plausible image, not noise.
	coarse, err := DecodeProgressive(data, stats.TopLevel, nil)
	if err != nil {
		t.Fatal(err)
	}
	mse, _ := src.MSE(coarse)
	if mse > 6000 {
		t.Fatalf("top-only reconstruction MSE %.0f is implausibly bad", mse)
	}
}

func TestProgressiveDecodeNegativeLevel(t *testing.T) {
	if _, err := DecodeProgressive(nil, -1, nil); err == nil {
		t.Fatal("negative stop level accepted")
	}
}

func TestProgressiveBeyondTopIsTopOnly(t *testing.T) {
	src := img.Synthetic(64, 64, 3)
	data, stats, err := Encode(src, Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := DecodeProgressive(data, stats.TopLevel, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeProgressive(data, stats.TopLevel+5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("stop levels beyond the pyramid top should behave like top-only")
	}
}

// Property: lossless round trip holds for arbitrary small images.
func TestQuickLosslessRoundTrip(t *testing.T) {
	f := func(pix []byte, wSeed uint8) bool {
		w := int(wSeed)%24 + 1
		h := len(pix) / w
		if h == 0 {
			return true
		}
		if h > 24 {
			h = 24
		}
		g := img.New(w, h)
		copy(g.Pix, pix[:w*h])
		data, _, err := Encode(g, Params{}, nil)
		if err != nil {
			return false
		}
		got, err := Decode(data, nil)
		return err == nil && g.Equal(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// countingSink is a trace.AddressSink that counts the addresses and hands
// each chunk straight back to be refilled.
type countingSink struct{ n int }

func (s *countingSink) Extent(int)              {}
func (s *countingSink) Chunk(c []int32) []int32 { s.n += len(c); return c[:0] }
func (s *countingSink) Close()                  {}

// TestTracedEncodeAllocs pins the cost of capturing the image address
// trace: with a sink that hands every chunk straight back, a traced 256²
// encode may allocate at most one trace.ChunkLen chunk, plus slack for the
// trace's bookkeeping, beyond a counts-only encode. A recorder that keeps or
// copies a chunk, or allocates a fresh one per spill, breaks the bound.
func TestTracedEncodeAllocs(t *testing.T) {
	src := img.Synthetic(256, 256, 1)
	// alloc returns the fewest bytes one encode allocated over three tries
	// (a stray runtime allocation can only add), and the trace length.
	alloc := func(traced bool) (uint64, int) {
		best := uint64(math.MaxUint64)
		sink := &countingSink{}
		for try := 0; try < 3; try++ {
			rec := trace.NewRecorder()
			sink.n = 0
			if traced {
				rec.StreamAddressTrace("image", sink)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, _, err := Encode(src, Params{}, rec); err != nil {
				t.Fatal(err)
			}
			rec.CloseAddressTrace("image")
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best, sink.n
	}
	counted, _ := alloc(false)
	traced, n := alloc(true)
	if n <= trace.ChunkLen {
		t.Fatalf("image address trace of %d addresses fits one chunk; want several", n)
	}
	extra := int64(traced) - int64(counted)
	limit := int64(4*trace.ChunkLen + 4096)
	t.Logf("trace %d addresses (%d B); traced encode allocates %d B more than counts only (limit %d B)",
		n, 4*n, extra, limit)
	if extra > limit {
		t.Fatalf("traced encode allocates %d B more than counts only; limit %d B (one chunk plus slack)",
			extra, limit)
	}
}

func BenchmarkEncode256(b *testing.B) {
	src := img.Synthetic(256, 256, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Encode(src, Params{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeProfiled256(b *testing.B) {
	src := img.Synthetic(256, 256, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Encode(src, Params{}, trace.NewRecorder()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeTraced256 is the profiling encode the methodology runs:
// access counts plus the image read-address trace, handed chunk by chunk
// to a sink that counts it and gives each chunk back. With
// BenchmarkEncode256 (bare) and BenchmarkEncodeProfiled256 (counts only)
// it gives the three-way cost of the instrumentation.
func BenchmarkEncodeTraced256(b *testing.B) {
	src := img.Synthetic(256, 256, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := trace.NewRecorder()
		sink := &countingSink{}
		rec.StreamAddressTrace("image", sink)
		if _, _, err := Encode(src, Params{}, rec); err != nil {
			b.Fatal(err)
		}
		rec.CloseAddressTrace("image")
		if sink.n == 0 {
			b.Fatal("empty image address trace")
		}
	}
}

func BenchmarkDecode256(b *testing.B) {
	src := img.Synthetic(256, 256, 1)
	data, _, err := Encode(src, Params{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data, nil); err != nil {
			b.Fatal(err)
		}
	}
}
