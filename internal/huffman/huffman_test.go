package huffman

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
)

// encodeAll encodes syms with a fresh coder and returns the bit stream.
func encodeAll(t *testing.T, n int, syms []int) []byte {
	t.Helper()
	c := New(n)
	w := bitio.NewWriter()
	for _, s := range syms {
		c.Encode(s, w)
	}
	return w.Bytes()
}

// decodeAll decodes len(want) symbols with a fresh coder.
func decodeAll(t *testing.T, n int, buf []byte, count int) []int {
	t.Helper()
	c := New(n)
	r := bitio.NewReader(buf)
	out := make([]int, count)
	for i := range out {
		s, err := c.Decode(r)
		if err != nil {
			t.Fatalf("decode symbol %d: %v", i, err)
		}
		out[i] = s
	}
	return out
}

func TestRoundTripSmall(t *testing.T) {
	syms := []int{3, 3, 3, 1, 0, 3, 2, 2, 1, 3, 0, 0, 0, 0, 3}
	buf := encodeAll(t, 4, syms)
	got := decodeAll(t, 4, buf, len(syms))
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("symbol %d: got %d want %d", i, got[i], syms[i])
		}
	}
}

func TestRoundTripSingleSymbolAlphabet(t *testing.T) {
	syms := []int{0, 0, 0, 0, 0}
	buf := encodeAll(t, 1, syms)
	got := decodeAll(t, 1, buf, len(syms))
	for i := range syms {
		if got[i] != 0 {
			t.Fatalf("symbol %d: got %d want 0", i, got[i])
		}
	}
}

func TestRoundTripAllSymbolsOnce(t *testing.T) {
	const n = 64
	syms := make([]int, n)
	for i := range syms {
		syms[i] = i
	}
	buf := encodeAll(t, n, syms)
	got := decodeAll(t, n, buf, len(syms))
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("symbol %d: got %d want %d", i, got[i], syms[i])
		}
	}
}

func TestInvariantsAfterEveryUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := New(17)
	w := bitio.NewWriter()
	for i := 0; i < 5000; i++ {
		// Zipf-ish skew: low symbols much more frequent.
		s := rng.Intn(17)
		if rng.Intn(3) > 0 {
			s = rng.Intn(3)
		}
		c.Encode(s, w)
		if err := c.checkInvariants(); err != nil {
			t.Fatalf("after %d symbols: %v", i+1, err)
		}
	}
}

func TestDecoderInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	syms := make([]int, 2000)
	for i := range syms {
		syms[i] = rng.Intn(9)
	}
	buf := encodeAll(t, 9, syms)
	c := New(9)
	r := bitio.NewReader(buf)
	for i := range syms {
		s, err := c.Decode(r)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if s != syms[i] {
			t.Fatalf("decode %d: got %d want %d", i, s, syms[i])
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatalf("decoder invariants after %d: %v", i+1, err)
		}
	}
}

func TestCompressionBeatsFixedWidthOnSkewedData(t *testing.T) {
	// 90% symbol 0 out of a 256-symbol alphabet: adaptive Huffman must get
	// well under the 8 bits/symbol of a fixed code.
	rng := rand.New(rand.NewSource(3))
	const count = 20000
	syms := make([]int, count)
	for i := range syms {
		if rng.Float64() < 0.9 {
			syms[i] = 0
		} else {
			syms[i] = rng.Intn(256)
		}
	}
	buf := encodeAll(t, 256, syms)
	bitsPerSym := float64(len(buf)*8) / count
	if bitsPerSym > 4.0 {
		t.Fatalf("bits/symbol = %.2f, want <= 4.0 on 90%%-skewed data", bitsPerSym)
	}
}

// TestCodeLenShrinksForFrequentSymbol checks the emitted bits: once symbol
// 7 dominates the stream, its code is a single bit.
func TestCodeLenShrinksForFrequentSymbol(t *testing.T) {
	c := New(32)
	w := bitio.NewWriter()
	for i := 0; i < 32; i++ {
		c.Encode(i, w) // all symbols once
	}
	before := w.Len()
	c.Encode(7, w)
	if first := w.Len() - before; first <= 1 {
		t.Fatalf("first repeat of symbol 7 cost %d bits, want more than 1", first)
	}
	for i := 0; i < 200; i++ {
		c.Encode(7, w)
	}
	before = w.Len()
	c.Encode(7, w)
	if after := w.Len() - before; after != 1 {
		t.Fatalf("dominant symbol code length = %d, want 1", after)
	}
}

// TestAdaptiveApproachesEntropy: the adaptive coder (which needs neither a
// first pass nor a transmitted table) must come within 6 % of the
// empirical entropy sum f*log2(N/f) of the stream. No prefix code, and so
// no two-pass static Huffman code, beats that bound; this is the property
// that justifies BTPC's choice.
func TestAdaptiveApproachesEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 64
	freqs := make([]int, n)
	var syms []int
	for i := 0; i < 30000; i++ {
		s := rng.Intn(4)
		if rng.Intn(4) == 0 {
			s = rng.Intn(n)
		}
		syms = append(syms, s)
		freqs[s]++
	}
	entropy := 0.0
	for _, f := range freqs {
		if f > 0 {
			entropy += float64(f) * math.Log2(float64(len(syms))/float64(f))
		}
	}

	ad := New(n)
	w := bitio.NewWriter()
	for _, s := range syms {
		ad.Encode(s, w)
	}
	adaptiveBits := w.Len()

	ratio := float64(adaptiveBits) / entropy
	if ratio > 1.06 {
		t.Fatalf("adaptive %d bits is %.1f%% above the entropy %.0f bits",
			adaptiveBits, 100*(ratio-1), entropy)
	}
}

func TestDecodeTruncatedStream(t *testing.T) {
	buf := encodeAll(t, 16, []int{5, 5, 9, 3})
	c := New(16)
	// Feed only the first byte: at some point decoding must fail cleanly.
	r := bitio.NewReader(buf[:1])
	for i := 0; i < 10; i++ {
		if _, err := c.Decode(r); err != nil {
			if err != ErrCorrupt {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			return
		}
	}
	t.Fatal("decoding a truncated stream never failed")
}

func TestDecodeEmptyStream(t *testing.T) {
	c := New(8)
	if _, err := c.Decode(bitio.NewReader(nil)); err != ErrCorrupt {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestEncodeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range symbol")
		}
	}()
	New(4).Encode(4, bitio.NewWriter())
}

func TestNewZeroAlphabetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty alphabet")
		}
	}()
	New(0)
}

func TestReset(t *testing.T) {
	c := New(8)
	w := bitio.NewWriter()
	for i := 0; i < 8; i++ {
		c.Encode(i, w)
	}
	c.Reset()
	if err := c.checkInvariants(); err != nil {
		t.Fatalf("invariants after Reset: %v", err)
	}
	// A reset coder must exactly mirror a fresh one.
	w2 := bitio.NewWriter()
	c.Encode(3, w2)
	fresh := New(8)
	w3 := bitio.NewWriter()
	fresh.Encode(3, w3)
	a, b := w2.Bytes(), w3.Bytes()
	if len(a) != len(b) || (len(a) > 0 && a[0] != b[0]) {
		t.Fatalf("reset coder output %x differs from fresh coder %x", a, b)
	}
}

func TestBitsFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{256, 8}, {257, 9}, {512, 9}, {513, 10},
	}
	for _, tc := range cases {
		if got := int(bitsFor(tc.n)); got != tc.want {
			t.Errorf("bitsFor(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// Property: any symbol sequence over any alphabet round-trips, and both
// sides keep their invariants.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []byte, alphaSeed uint8) bool {
		n := int(alphaSeed)%300 + 1
		syms := make([]int, len(raw))
		for i, b := range raw {
			syms[i] = int(b) % n
		}
		enc := New(n)
		w := bitio.NewWriter()
		for _, s := range syms {
			enc.Encode(s, w)
		}
		if enc.checkInvariants() != nil {
			return false
		}
		dec := New(n)
		r := bitio.NewReader(w.Bytes())
		for _, want := range syms {
			got, err := dec.Decode(r)
			if err != nil || got != want {
				return false
			}
		}
		return dec.checkInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

type countingMeter struct {
	treeR, treeW, wR, wW int
}

func (m *countingMeter) TreeRead(n int)    { m.treeR += n }
func (m *countingMeter) TreeWrite(n int)   { m.treeW += n }
func (m *countingMeter) WeightRead(n int)  { m.wR += n }
func (m *countingMeter) WeightWrite(n int) { m.wW += n }

func TestMeterSeesAccesses(t *testing.T) {
	c := New(16)
	m := &countingMeter{}
	c.Instrument(m)
	w := bitio.NewWriter()
	for i := 0; i < 100; i++ {
		c.Encode(i%16, w)
	}
	if m.treeR == 0 || m.treeW == 0 || m.wR == 0 || m.wW == 0 {
		t.Fatalf("meter missed accesses: %+v", *m)
	}
	// Every symbol triggers at least one weight increment on the walk.
	if m.wW < 100 {
		t.Fatalf("weight writes = %d, want >= 100", m.wW)
	}
	// Decoder side must also meter.
	d := New(16)
	dm := &countingMeter{}
	d.Instrument(dm)
	r := bitio.NewReader(w.Bytes())
	for i := 0; i < 100; i++ {
		if _, err := d.Decode(r); err != nil {
			t.Fatal(err)
		}
	}
	if dm.treeR == 0 || dm.wW < 100 {
		t.Fatalf("decoder meter missed accesses: %+v", *dm)
	}
}

func TestMeterDoesNotChangeBits(t *testing.T) {
	plain := New(8)
	metered := New(8)
	metered.Instrument(&countingMeter{})
	w1, w2 := bitio.NewWriter(), bitio.NewWriter()
	for i := 0; i < 200; i++ {
		plain.Encode(i%8, w1)
		metered.Encode(i%8, w2)
	}
	a, b := w1.Bytes(), w2.Bytes()
	if len(a) != len(b) {
		t.Fatalf("metered output length differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("metered output differs at byte %d", i)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	syms := make([]int, 4096)
	for i := range syms {
		syms[i] = rng.Intn(64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(64)
		w := bitio.NewWriter()
		for _, s := range syms {
			c.Encode(s, w)
		}
	}
}
