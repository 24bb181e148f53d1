// Package workloads provides parameterized pruned-specification generators
// for classic data-dominated multimedia kernels — the application domain
// the paper targets. They serve as exploration subjects beyond the BTPC
// demonstrator: regression workloads for the physical-memory-management
// substrate and realistic inputs for the examples and benchmarks.
//
// Every generator returns a validated specification plus the real-time
// context (cycle budget, frame period, on/off-chip threshold) that makes
// exploring it meaningful.
package workloads

import (
	"fmt"

	"repro/internal/spec"
)

// Context is the real-time setting a workload is explored under.
type Context struct {
	CycleBudget    uint64
	FramePeriod    float64 // seconds per frame
	OnChipMaxWords int64
}

// MotionEstimation builds a full-search block-matching motion estimator:
// for every B×B block of the current frame, all (2R+1)² candidate
// positions in the reference frame are evaluated by accumulating absolute
// differences. The reference-window traffic dominates — the canonical
// data-reuse exploration subject.
func MotionEstimation(w, h, block, searchRange int) (*spec.Spec, Context, error) {
	if w <= 0 || h <= 0 || block <= 0 || searchRange <= 0 || w%block != 0 || h%block != 0 {
		return nil, Context{}, fmt.Errorf("workloads: invalid motion-estimation geometry %dx%d/%d/%d",
			w, h, block, searchRange)
	}
	blocks := uint64((w / block) * (h / block))
	cands := uint64((2*searchRange + 1) * (2*searchRange + 1))
	frame := int64(w) * int64(h)

	b := spec.NewBuilder(fmt.Sprintf("me-%dx%d-b%d-r%d", w, h, block, searchRange))
	b.Group("cur", frame, 8)
	b.Group("ref", frame, 8)
	b.Group("sad", 64, 20) // per-candidate accumulators
	b.Group("mv", int64(blocks), 12)
	b.Group("best", 16, 20)

	b.Loop("input", uint64(frame))
	b.Write("cur", 1)

	// Hot body: one candidate evaluation. The designer prunes the B²-deep
	// pixel loop to representative parallel read pairs plus the SAD
	// accumulation chain (its depth models the per-candidate accumulation).
	perCand := float64(block * block)
	b.Loop("candidate", blocks*cands)
	var pairs []int
	const sites = 4
	for i := 0; i < sites; i++ {
		c := b.ReadSite("cur", fmt.Sprintf("c%d", i), perCand/sites)
		r := b.ReadSite("ref", fmt.Sprintf("r%d", i), perCand/sites)
		pairs = append(pairs, c, r)
	}
	s1 := b.Read("sad", 1, pairs...)
	s2 := b.Write("sad", 1, s1)
	bb := b.Read("best", 1, s2)
	b.Write("best", 1, bb)

	// Per block: pick the winner.
	b.Loop("select", blocks)
	sb := b.Read("best", 1)
	b.Write("mv", 1, sb)

	s, err := b.Build()
	if err != nil {
		return nil, Context{}, err
	}
	ctx := Context{
		// Real-time: ~12 storage cycles per candidate evaluation.
		CycleBudget:    12 * blocks * cands,
		FramePeriod:    float64(frame) / 1e6,
		OnChipMaxWords: frame / 8,
	}
	return s, ctx, nil
}

// Wavelet builds an in-place 5/3 lifting wavelet transform over `levels`
// decomposition levels: per level the image rows/columns are read and
// rewritten, with a line buffer holding the lifting neighbourhood.
func Wavelet(w, h, levels int) (*spec.Spec, Context, error) {
	if w <= 0 || h <= 0 || levels <= 0 || levels > 10 {
		return nil, Context{}, fmt.Errorf("workloads: invalid wavelet geometry %dx%d/%d", w, h, levels)
	}
	frame := int64(w) * int64(h)
	b := spec.NewBuilder(fmt.Sprintf("wavelet-%dx%d-l%d", w, h, levels))
	b.Group("img", frame, 16) // lifting grows the dynamic range
	b.Group("line", int64(2*w), 16)
	b.Group("ltap", 8, 12)

	b.Loop("input", uint64(frame))
	b.Write("img", 1)

	pixels := uint64(frame)
	total := uint64(0)
	for l := 0; l < levels; l++ {
		iters := pixels >> uint(2*l)
		if iters == 0 {
			break
		}
		total += iters
		b.Loop(fmt.Sprintf("level%d", l), iters)
		// Predict step: read the two lifting neighbours and the centre.
		n1 := b.ReadSite("img", "n1", 1)
		n2 := b.ReadSite("img", "n2", 1)
		c := b.ReadSite("img", "centre", 1)
		t := b.Read("ltap", 1)
		lb := b.Read("line", 1, n1, n2, c, t)
		b.Write("line", 1, lb)
		// Update step: write the coefficient back in place.
		b.WriteSite("img", "coef", 1, lb)
	}
	s, err := b.Build()
	if err != nil {
		return nil, Context{}, err
	}
	ctx := Context{
		CycleBudget:    14*total + 2*uint64(frame),
		FramePeriod:    float64(frame) / 1e6,
		OnChipMaxWords: frame / 8,
	}
	return s, ctx, nil
}

// FIRFilter builds an n-sample, T-tap FIR filter over a circular delay
// line: the small-kernel, table-dominated end of the domain.
func FIRFilter(samples, taps int) (*spec.Spec, Context, error) {
	if samples <= 0 || taps <= 1 || taps > 512 {
		return nil, Context{}, fmt.Errorf("workloads: invalid FIR %d/%d", samples, taps)
	}
	b := spec.NewBuilder(fmt.Sprintf("fir-%d-t%d", samples, taps))
	b.Group("x", int64(samples), 16)
	b.Group("dline", int64(taps), 16)
	b.Group("coef", int64(taps), 16)
	b.Group("y", int64(samples), 16)

	b.Loop("sample", uint64(samples))
	in := b.Read("x", 1)
	dw := b.Write("dline", 1, in)
	// The multiply-accumulate sweep over the taps, pruned to a short chain
	// of alternating delay-line/coefficient reads.
	const sites = 4
	prev := dw
	for i := 0; i < sites; i++ {
		d := b.Read("dline", float64(taps)/sites, prev)
		prev = b.Read("coef", float64(taps)/sites, d)
	}
	b.Write("y", 1, prev)

	s, err := b.Build()
	if err != nil {
		return nil, Context{}, err
	}
	ctx := Context{
		CycleBudget:    uint64(samples) * uint64(2*taps+8),
		FramePeriod:    float64(samples) / 48_000, // audio rate
		OnChipMaxWords: 64 * 1024,
	}
	return s, ctx, nil
}

// ATMSwitch builds a 16-port shared-buffer ATM switch processing cells —
// the DTSE papers' network-component domain (Slock et al.). Each cell does
// a header lookup in the routing table, a per-VC accounting
// read-modify-write, and a payload enqueue and dequeue (12 words of 32
// bit). sharedBuffer selects one shared 128K-word cell pool; otherwise the
// cells spread over four partitioned 32K-word pools, modeled as mutually
// exclusive branches (a cell lands in exactly one).
func ATMSwitch(name string, sharedBuffer bool) (*spec.Spec, Context, error) {
	const (
		cellsPerFrame = 400_000 // ~OC-3 line rate over one exploration frame
		payloadWords  = 12      // 48-byte payload as 32-bit words
		budgetPerCell = 34      // storage cycles per cell (enqueue + dequeue)
	)
	b := spec.NewBuilder(name)
	if sharedBuffer {
		b.Group("cellbuf", 128*1024, 32) // one shared pool
	} else {
		// Partitioned per port group: four quarter-size pools.
		for i := 0; i < 4; i++ {
			b.Group(fmt.Sprintf("cellbuf%d", i), 32*1024, 32)
		}
	}
	b.Group("route", 4096, 14) // VPI/VCI -> output port + new header
	b.Group("vcacct", 4096, 20)
	b.Group("freelist", 8192, 13)

	if sharedBuffer {
		b.Loop("enqueue", cellsPerFrame)
		r := b.Read("route", 1)
		a := b.Read("vcacct", 1, r)
		b.Write("vcacct", 1, a)
		prev := b.Read("freelist", 1, r)
		for w := 0; w < payloadWords; w++ {
			prev = b.Write("cellbuf", 1, prev)
		}
		b.Loop("dequeue", cellsPerFrame)
		prev = b.Read("freelist", 1)
		for w := 0; w < payloadWords; w++ {
			prev = b.Read("cellbuf", 1, prev)
		}
		b.Write("freelist", 1, prev)
	} else {
		b.Loop("enqueue", cellsPerFrame)
		r := b.Read("route", 1)
		a := b.Read("vcacct", 1, r)
		b.Write("vcacct", 1, a)
		f := b.Read("freelist", 1, r)
		for i := 0; i < 4; i++ {
			b.Branch(fmt.Sprintf("pool%d", i))
			prev := f
			for w := 0; w < payloadWords; w++ {
				prev = b.Write(fmt.Sprintf("cellbuf%d", i), 0.25, prev)
			}
			b.Branch("")
		}
		b.Loop("dequeue", cellsPerFrame)
		f2 := b.Read("freelist", 1)
		for i := 0; i < 4; i++ {
			b.Branch(fmt.Sprintf("pool%d", i))
			prev := f2
			for w := 0; w < payloadWords; w++ {
				prev = b.Read(fmt.Sprintf("cellbuf%d", i), 0.25, prev)
			}
			b.Branch("")
		}
		b.Write("freelist", 1, f2)
	}
	s, err := b.Build()
	if err != nil {
		return nil, Context{}, err
	}
	ctx := Context{
		CycleBudget:    budgetPerCell * cellsPerFrame,
		FramePeriod:    0.4,        // 400k cells over 0.4 s
		OnChipMaxWords: 192 * 1024, // the cell pools are large SRAMs: allow them on chip
	}
	return s, ctx, nil
}
