// Package btpc implements Binary Tree Predictive Coding (Robinson, IEEE
// Trans. Image Processing 1997), the industrial demonstrator application of
// the paper. BTPC is a lossless/lossy multiresolution image coder:
//
//   - The image is decomposed into a quincunx binary pyramid. Each level
//     keeps half the pixels of the level below (alternating diamond and
//     square lattices), so successive levels form the paper's
//     "high-resolution image and low-resolution quarter-image" split.
//   - Every pixel that is new at a level is predicted from its four
//     already-known neighbours (axial on even levels, diagonal on odd
//     levels). A neighbourhood-pattern classifier selects one of six
//     adaptive Huffman coders for the prediction error, and stores a 2-bit
//     activity class in the `ridge` array.
//   - For lossy operation the prediction errors are quantized before
//     entropy coding, with the encoder tracking the decoder's
//     reconstruction so both stay synchronized.
//
// The encoder is instrumented with package trace. It exposes exactly the
// 18 basic groups the paper's exploration works with: the three large
// 1-Mword arrays `image` (8 bit), `pyr` (8 bit) and `ridge` (2 bit), the
// per-context Huffman tree and weight arrays (`htree0..5`, ~10 bit;
// `hweight0..5`, 20 bit — the paper's "largest needs twenty bits"), and the
// small lookup/statistics arrays `qtab`, `iqtab` and `hist`.
package btpc

import (
	"errors"
	"fmt"

	"repro/internal/bitio"
	"repro/internal/huffman"
	"repro/internal/img"
	"repro/internal/trace"
)

// NumContexts is the number of neighbourhood-pattern classes and therefore
// the number of independent adaptive Huffman coders ("Six different Huffman
// coders are used, depending on the neighbourhood pattern").
const NumContexts = 6

// Context identifiers. CtxFlat..CtxTexture order the classes by increasing
// local activity.
const (
	CtxFlat    = 0 // all neighbours nearly equal
	CtxSmooth  = 1 // small dynamic range (also used near borders)
	CtxEdge1   = 2 // edge aligned with the first neighbour pair
	CtxEdge2   = 3 // edge aligned with the second neighbour pair
	CtxRidge   = 4 // the two pair means diverge: a ridge through the pixel
	CtxTexture = 5 // incoherent neighbourhood
)

const (
	directSyms = 128 // symbols coded directly by the Huffman coders
	escapeSym  = directSyms
	alphabet   = directSyms + 1
	escapeBits = 9   // raw bits after an escape (symbols reach 510)
	maxErrIdx  = 511 // error index range: e+255 for e in [-255,255]
)

// Params configures the encoder.
type Params struct {
	// Quant is the quantization step for prediction errors. 1 (or 0)
	// selects lossless operation.
	Quant int
}

func (p *Params) normalize() error {
	if p.Quant == 0 {
		p.Quant = 1
	}
	if p.Quant < 0 || p.Quant > 64 {
		return fmt.Errorf("btpc: quantization step %d out of range [1,64]", p.Quant)
	}
	return nil
}

// Stats summarizes one encode run.
type Stats struct {
	W, H          int
	TopLevel      int // number of predicted levels (pyramid height)
	TopPixels     int // pixels transmitted raw at the top
	BitsTotal     int // total output bits
	SymbolsPerCtx [NumContexts]uint64
	Escapes       uint64 // symbols that needed the escape path
}

// BitsPerPixel returns the achieved rate.
func (s *Stats) BitsPerPixel() float64 {
	return float64(s.BitsTotal) / float64(s.W*s.H)
}

var errHeader = errors.New("btpc: bad or truncated header")

// topMin is the minimum top-lattice dimension: the pyramid stops splitting
// when the coarse lattice would drop below it.
const topMin = 4

// topT returns the lattice exponent t (top level L = 2t) for a w×h image.
func topT(w, h int) int {
	t := 0
	for {
		s := 1 << (t + 1)
		if (w+s-1)/s < topMin || (h+s-1)/s < topMin {
			return t
		}
		t++
		if t >= 14 { // 2^14 spacing covers any sane image
			return t
		}
	}
}

// zigzag maps a signed quantized error to a non-negative symbol.
func zigzag(q int) int {
	if q <= 0 {
		return -2 * q
	}
	return 2*q - 1
}

// unzigzag inverts zigzag.
func unzigzag(s int) int {
	if s&1 == 0 {
		return -(s / 2)
	}
	return (s + 1) / 2
}

// coderMeter routes a Huffman coder's internal accesses to two trace
// handles, making the coder's tree and weight arrays visible as basic
// groups.
type coderMeter struct {
	tree, weight *trace.Handle
}

func (m *coderMeter) TreeRead(n int)    { m.tree.Read(uint64(n)) }
func (m *coderMeter) TreeWrite(n int)   { m.tree.Write(uint64(n)) }
func (m *coderMeter) WeightRead(n int)  { m.weight.Read(uint64(n)) }
func (m *coderMeter) WeightWrite(n int) { m.weight.Write(uint64(n)) }

// pipeline bundles the state shared by encoder and decoder: the pyramid
// arrays, lookup tables and the six context coders. Keeping one definition
// guarantees model synchronization.
type pipeline struct {
	w, h   int
	quant  int
	src    *trace.Array2D // image (encoder) / out (decoder): pixel values
	pyr    *trace.Array2D // per-pixel coded-error magnitude (8 bit)
	ridge  *trace.Array2D // per-pixel 2-bit activity class
	qtab   *trace.Array1D // error -> symbol lookup (encoder only)
	iqtab  *trace.Array1D // symbol -> reconstructed error lookup
	hist   *trace.Array1D // symbol histogram (rate statistics)
	coders [NumContexts]*huffman.Coder
}

func newPipeline(rec *trace.Recorder, srcName string, w, h, quant int) *pipeline {
	p := &pipeline{
		w: w, h: h, quant: quant,
		src:   trace.NewArray2D(rec, srcName, w, h),
		pyr:   trace.NewArray2D(rec, "pyr", w, h),
		ridge: trace.NewArray2D(rec, "ridge", w, h),
		qtab:  trace.NewArray1D(rec, "qtab", maxErrIdx),
		iqtab: trace.NewArray1D(rec, "iqtab", maxErrIdx),
		hist:  trace.NewArray1D(rec, "hist", maxErrIdx),
	}
	// Build the quantization lookup tables. Table initialization is part of
	// the setup phase, not the pixel loops; the paper prunes such code, so
	// the writes are recorded in a dedicated scope.
	rec.Push("tabinit")
	for e := -255; e <= 255; e++ {
		q := e / quant
		if r := e % quant; r*2 >= quant {
			q++
		} else if r*2 <= -quant {
			q--
		}
		p.qtab.Set(e+255, int32(zigzag(q)))
	}
	for s := 0; s < maxErrIdx; s++ {
		p.iqtab.Set(s, int32(unzigzag(s)*quant))
	}
	rec.Pop()
	for i := range p.coders {
		p.coders[i] = huffman.New(alphabet)
		if rec != nil {
			p.coders[i].Instrument(&coderMeter{
				tree:   rec.NewHandle(fmt.Sprintf("htree%d", i)),
				weight: rec.NewHandle(fmt.Sprintf("hweight%d", i)),
			})
		}
	}
	return p
}

// neighborhood holds the classification result for one pixel.
type neighborhood struct {
	ctx        int
	pred       int
	ridgeClass int32
}

// classify inspects the four (or fewer, at borders) known neighbours of
// (x, y) at level k and selects the context, predictor and 2-bit activity
// class. Both encoder and decoder call it with identical state.
func (p *pipeline) classify(x, y, k int) neighborhood {
	s := 1 << (k >> 1)
	var nx, ny [4]int
	if k&1 == 0 {
		// Axial neighbours: W, E, N, S. Pair 1 = (W,E), pair 2 = (N,S).
		nx = [4]int{x - s, x + s, x, x}
		ny = [4]int{y, y, y - s, y + s}
	} else {
		// Diagonal neighbours: NW, SE, NE, SW. Pair 1 = (NW,SE).
		nx = [4]int{x - s, x + s, x + s, x - s}
		ny = [4]int{y - s, y + s, y - s, y + s}
	}
	var v [4]int
	var have [4]bool
	n, sum := 0, 0
	minV, maxV := 256, -1
	firstIdx := -1
	for i := 0; i < 4; i++ {
		if nx[i] < 0 || nx[i] >= p.w || ny[i] < 0 || ny[i] >= p.h {
			continue
		}
		val := int(p.src.Get(nx[i], ny[i]))
		v[i], have[i] = val, true
		n++
		sum += val
		if val < minV {
			minV = val
		}
		if val > maxV {
			maxV = val
		}
		if firstIdx < 0 {
			firstIdx = i
		}
	}
	if n == 0 {
		return neighborhood{ctx: CtxSmooth, pred: 128, ridgeClass: 1}
	}
	mean := (sum + n/2) / n
	// Local-activity feedback: the coded-error magnitude and activity class
	// of the first known neighbour tighten or relax the flatness thresholds.
	// This is the site where pyr and ridge are read together at the same
	// index — the access pattern that makes them the paper's merging
	// candidates.
	a0 := int(p.pyr.Get(nx[firstIdx], ny[firstIdx]))
	r0 := p.ridge.Get(nx[firstIdx], ny[firstIdx])
	busy := r0 >= 2 || a0 > 12
	t1, t2 := 5, 16
	if busy {
		t1, t2 = 3, 10
	}
	rng := maxV - minV
	switch {
	case n < 4:
		if rng <= t2 {
			return neighborhood{ctx: CtxSmooth, pred: mean, ridgeClass: 1}
		}
		return neighborhood{ctx: CtxTexture, pred: mean, ridgeClass: 3}
	case rng <= t1:
		return neighborhood{ctx: CtxFlat, pred: mean, ridgeClass: 0}
	case rng <= t2:
		return neighborhood{ctx: CtxSmooth, pred: mean, ridgeClass: 1}
	}
	d1 := abs(v[0] - v[1])
	d2 := abs(v[2] - v[3])
	m1 := (v[0] + v[1]) / 2
	m2 := (v[2] + v[3]) / 2
	switch {
	case d2 >= 2*d1+8:
		// Variation sits across pair 2: an edge aligned with pair 1.
		return neighborhood{ctx: CtxEdge1, pred: m1, ridgeClass: 2}
	case d1 >= 2*d2+8:
		return neighborhood{ctx: CtxEdge2, pred: m2, ridgeClass: 2}
	case abs(m1-m2) >= 24:
		// Both pairs are internally consistent but disagree: a ridge.
		return neighborhood{ctx: CtxRidge, pred: median4(v), ridgeClass: 3}
	default:
		return neighborhood{ctx: CtxTexture, pred: mean, ridgeClass: 3}
	}
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// median4 returns the mean of the two middle values of exactly four values.
func median4(v [4]int) int {
	a := v
	for i := 1; i < 4; i++ { // insertion sort
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
	return (a[1] + a[2]) / 2
}

// LevelSizes returns the pixel counts of the pyramid for a w×h image: the
// number of raw-coded top-lattice pixels and, for each predicted level k
// (index k, finest level 0), the number of pixels that are new at k. The
// pruned-specification builder uses these as loop iteration counts.
func LevelSizes(w, h int) (top int, levels []int) {
	t := topT(w, h)
	step := 1 << t
	for y := 0; y < h; y += step {
		for x := 0; x < w; x += step {
			top++
		}
	}
	levels = make([]int, 2*t)
	for k := 0; k < 2*t; k++ {
		n := 0
		forEachLatticePixel(w, h, k, func(x, y int) { n++ })
		levels[k] = n
	}
	return top, levels
}

// forEachLatticePixel visits the pixels that are new at level k in raster
// order. t is the top lattice exponent.
func forEachLatticePixel(w, h, k int, fn func(x, y int)) {
	t := k >> 1
	step := 1 << t
	odd := k&1 == 1
	for y := 0; y < h; y += step {
		for x := 0; x < w; x += step {
			xi, yi := x>>t, y>>t
			if odd {
				if xi&1 == 1 && yi&1 == 1 {
					fn(x, y)
				}
			} else if (xi+yi)&1 == 1 {
				fn(x, y)
			}
		}
	}
}

// Encode compresses src with the given parameters, recording memory
// accesses into rec (nil disables profiling). It returns the bit stream and
// encoding statistics.
func Encode(src *img.Gray, params Params, rec *trace.Recorder) ([]byte, *Stats, error) {
	if err := params.normalize(); err != nil {
		return nil, nil, err
	}
	w, h := src.W, src.H
	if w > 0xFFFF || h > 0xFFFF {
		return nil, nil, fmt.Errorf("btpc: image %dx%d exceeds 16-bit dimensions", w, h)
	}
	t := topT(w, h)
	p := newPipeline(rec, "image", w, h, params.Quant)

	// Load phase: the input image arrives in the image array.
	rec.Push("input")
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p.src.Set(x, y, int32(src.At(x, y)))
		}
	}
	rec.Pop()

	bw := bitio.NewWriter()
	bw.WriteBits(uint64('B'), 8)
	bw.WriteBits(uint64('T'), 8)
	bw.WriteBits(uint64(params.Quant), 8)
	bw.WriteBits(uint64(w), 16)
	bw.WriteBits(uint64(h), 16)
	bw.WriteBits(uint64(t), 8)

	stats := &Stats{W: w, H: h, TopLevel: 2 * t}

	rec.Push("enc")
	// Top lattice: transmit raw.
	rec.Push("top")
	step := 1 << t
	for y := 0; y < h; y += step {
		for x := 0; x < w; x += step {
			v := p.src.Get(x, y)
			bw.WriteBits(uint64(v), 8)
			p.pyr.Set(x, y, 0)
			p.ridge.Set(x, y, 1)
			stats.TopPixels++
		}
	}
	rec.Pop()

	// Predicted levels, coarse to fine.
	for k := 2*t - 1; k >= 0; k-- {
		rec.Push(fmt.Sprintf("level%d", k))
		forEachLatticePixel(w, h, k, func(x, y int) {
			nb := p.classify(x, y, k)
			actual := int(p.src.Get(x, y))
			e := actual - nb.pred
			sym := int(p.qtab.Get(e + 255))
			eq := int(p.iqtab.Get(sym))
			recon := clamp255(nb.pred + eq)
			if p.quant > 1 {
				// Lossy: later predictions must see the decoder's values.
				p.src.Set(x, y, int32(recon))
			}
			p.hist.Set(sym, p.hist.Get(sym)+1)
			c := p.coders[nb.ctx]
			if sym < directSyms {
				c.Encode(sym, bw)
			} else {
				c.Encode(escapeSym, bw)
				bw.WriteBits(uint64(sym), escapeBits)
				stats.Escapes++
			}
			stats.SymbolsPerCtx[nb.ctx]++
			p.pyr.Set(x, y, int32(clamp255(abs(eq))))
			p.ridge.Set(x, y, nb.ridgeClass)
		})
		rec.Pop()
	}
	rec.Pop()

	stats.BitsTotal = bw.Len()
	return bw.Bytes(), stats, nil
}

func clamp255(v int) int {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return v
}

// Decode reconstructs an image from an Encode bit stream. For lossless
// streams (quant 1) the result is pixel-identical to the encoder input.
func Decode(data []byte, rec *trace.Recorder) (*img.Gray, error) {
	return decode(data, rec, 0)
}

// DecodeProgressive reconstructs an image from a prefix of the pyramid:
// entropy-coded levels are decoded down to (and including) stopLevel, and
// the remaining finer pixels are filled by prediction alone. BTPC's
// multiresolution structure makes this progressive-transmission mode free
// (Robinson 1997 §V); stopLevel 0 is identical to Decode.
func DecodeProgressive(data []byte, stopLevel int, rec *trace.Recorder) (*img.Gray, error) {
	if stopLevel < 0 {
		return nil, fmt.Errorf("btpc: negative stop level %d", stopLevel)
	}
	return decode(data, rec, stopLevel)
}

func decode(data []byte, rec *trace.Recorder, stopLevel int) (*img.Gray, error) {
	br := bitio.NewReader(data)
	hdr, err := br.ReadBits(16)
	if err != nil || hdr != uint64('B')<<8|uint64('T') {
		return nil, errHeader
	}
	quantU, err := br.ReadBits(8)
	if err != nil {
		return nil, errHeader
	}
	wU, err := br.ReadBits(16)
	if err != nil {
		return nil, errHeader
	}
	hU, err := br.ReadBits(16)
	if err != nil {
		return nil, errHeader
	}
	tU, err := br.ReadBits(8)
	if err != nil {
		return nil, errHeader
	}
	w, h, t, quant := int(wU), int(hU), int(tU), int(quantU)
	if w == 0 || h == 0 || quant == 0 || quant > 64 || t > 14 {
		return nil, errHeader
	}
	if stopLevel > 2*t {
		stopLevel = 2 * t // beyond the pyramid top: decode the top only
	}
	p := newPipeline(rec, "out", w, h, quant)

	rec.Push("dec")
	rec.Push("top")
	step := 1 << t
	for y := 0; y < h; y += step {
		for x := 0; x < w; x += step {
			v, err := br.ReadBits(8)
			if err != nil {
				rec.Pop()
				rec.Pop()
				return nil, fmt.Errorf("btpc: truncated top lattice: %w", err)
			}
			p.src.Set(x, y, int32(v))
			p.pyr.Set(x, y, 0)
			p.ridge.Set(x, y, 1)
		}
	}
	rec.Pop()

	var decodeErr error
	for k := 2*t - 1; k >= stopLevel && decodeErr == nil; k-- {
		rec.Push(fmt.Sprintf("level%d", k))
		forEachLatticePixel(w, h, k, func(x, y int) {
			if decodeErr != nil {
				return
			}
			nb := p.classify(x, y, k)
			c := p.coders[nb.ctx]
			sym, err := c.Decode(br)
			if err != nil {
				decodeErr = fmt.Errorf("btpc: level %d at (%d,%d): %w", k, x, y, err)
				return
			}
			if sym == escapeSym {
				raw, err := br.ReadBits(escapeBits)
				if err != nil {
					decodeErr = fmt.Errorf("btpc: truncated escape: %w", err)
					return
				}
				sym = int(raw)
				if sym >= maxErrIdx {
					decodeErr = fmt.Errorf("btpc: escape symbol %d out of range", sym)
					return
				}
			}
			eq := int(p.iqtab.Get(sym))
			recon := clamp255(nb.pred + eq)
			p.src.Set(x, y, int32(recon))
			p.hist.Set(sym, p.hist.Get(sym)+1)
			p.pyr.Set(x, y, int32(clamp255(abs(eq))))
			p.ridge.Set(x, y, nb.ridgeClass)
		})
		rec.Pop()
	}
	// Progressive mode: the undecoded finer levels are filled by prediction
	// alone (zero residual), in the same coarse-to-fine order.
	for k := stopLevel - 1; k >= 0 && decodeErr == nil; k-- {
		rec.Push(fmt.Sprintf("interp%d", k))
		forEachLatticePixel(w, h, k, func(x, y int) {
			nb := p.classify(x, y, k)
			p.src.Set(x, y, int32(clamp255(nb.pred)))
			p.pyr.Set(x, y, 0)
			p.ridge.Set(x, y, nb.ridgeClass)
		})
		rec.Pop()
	}
	rec.Pop()
	if decodeErr != nil {
		return nil, decodeErr
	}

	out := img.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out.Set(x, y, uint8(p.src.Peek(x, y)))
		}
	}
	return out, nil
}
