// Package core implements the paper's contribution: the stepwise,
// system-level feedback methodology (§4, Figure 1). It drives the whole
// flow on the BTPC demonstrator:
//
//  1. pruning and basic-group analysis — the pruned specification is
//     generated from a profiled run of the real BTPC encoder (§4.1);
//  2. critical-path analysis (§4.2);
//  3. basic group structuring exploration (§4.3, Table 1);
//  4. memory hierarchy exploration with trace-driven reuse analysis
//     (§4.4, Table 2, Figure 3);
//  5. storage cycle budget exploration (§4.5, Table 3);
//  6. memory allocation exploration (§4.6, Table 4).
//
// Every evaluation runs the actual physical-memory-management substrate
// (sbd + assign + memlib), so the feedback the steps act on is the same
// accurate cost estimate the paper's tools provide.
package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/btpc"
	"repro/internal/img"
	"repro/internal/obs"
	"repro/internal/reuse"
	"repro/internal/spec"
	"repro/internal/trace"
)

// CyclesPerPixel is the storage cycle budget per pixel implied by the
// paper's constraints: 20 M cycles for a 1 Mpixel image at 1 Mpixel/s.
const CyclesPerPixel = 20

// DemoConfig configures the demonstrator construction.
type DemoConfig struct {
	Size  int    // image side; default 1024 (the paper's constraint size)
	Seed  uint64 // synthetic-image seed; default 1
	Quant int    // BTPC quantizer; default 1 (lossless)
}

func (c *DemoConfig) normalize() {
	if c.Size == 0 {
		c.Size = 1024
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Quant == 0 {
		c.Quant = 1
	}
}

// Demonstrator bundles the profiled BTPC application: the pruned
// specification, the reuse profile of the image array, and the real-time
// cycle budget.
type Demonstrator struct {
	Config       DemoConfig
	Spec         *spec.Spec
	ImageProfile *reuse.Profile // read-reuse profile of the image array
	Rec          *trace.Recorder
	Stats        *btpc.Stats
	CycleBudget  uint64
}

// BuildDemonstrator profiles the real BTPC encoder on a synthetic image and
// derives the pruned specification from the measured access counts —
// exactly the paper's §4.1 flow (manual pruning skeleton + automatic
// instrumentation counts).
func BuildDemonstrator(cfg DemoConfig) (*Demonstrator, error) {
	cfg.normalize()
	_, yhier := HierarchyLayers(cfg.Size)
	an := reuse.NewStream(context.Background(), nil, int(yhier.Words))
	d, err := profileDemonstrator(cfg, nil, an)
	prof := an.Profile()
	if err != nil {
		return nil, err
	}
	d.ImageProfile = prof
	return d, nil
}

// profileDemonstrator runs the profiling encode and derives the pruned
// specification, each in a child span under parent (nil parent disables the
// telemetry). The image array's read addresses stream, chunk by chunk, into
// an, which analyzes them while the encode runs; profileDemonstrator closes
// an after the encode, and leaves ImageProfile nil for the caller to fill
// from an.Profile(). The encode is not cancelable (the codec has no
// cancellation points); use small image sizes when operating under tight
// deadlines.
func profileDemonstrator(cfg DemoConfig, parent *obs.Span, an *reuse.Stream) (*Demonstrator, error) {
	cfg.normalize()
	rec := trace.NewRecorder()
	rec.StreamAddressTrace("image", an)
	src := img.Synthetic(cfg.Size, cfg.Size, cfg.Seed)
	esp := parent.Child("profile.encode")
	_, stats, err := btpc.Encode(src, btpc.Params{Quant: cfg.Quant}, rec)
	rec.CloseAddressTrace("image")
	if esp != nil {
		esp.SetInt("size", int64(cfg.Size))
		esp.SetInt("accesses", int64(rec.TotalAccesses()))
	}
	esp.End()
	if err != nil {
		return nil, fmt.Errorf("core: profiling encode failed: %w", err)
	}
	ssp := parent.Child("profile.spec")
	s, err := buildPrunedSpec(cfg, rec, stats)
	if err != nil {
		ssp.End()
		return nil, err
	}
	if ssp != nil {
		ssp.SetInt("groups", int64(len(s.Groups)))
		ssp.SetInt("loops", int64(len(s.Loops)))
	}
	ssp.End()
	return &Demonstrator{
		Config:      cfg,
		Spec:        s,
		Rec:         rec,
		Stats:       stats,
		CycleBudget: uint64(CyclesPerPixel) * uint64(cfg.Size) * uint64(cfg.Size),
	}, nil
}

// buildPrunedSpec writes down the designer's pruned loop skeleton of the
// BTPC encoder and fills in the profiled access counts per loop scope.
func buildPrunedSpec(cfg DemoConfig, rec *trace.Recorder, stats *btpc.Stats) (*spec.Spec, error) {
	n := int64(cfg.Size) * int64(cfg.Size)
	b := spec.NewBuilder(fmt.Sprintf("btpc-%d", cfg.Size))

	// The paper's 18 basic groups: three large image-sized arrays, the
	// lookup/statistics tables, and the six Huffman coders' tree and
	// weight arrays ("the largest needs twenty bits" — the weights).
	b.Group("image", n, 8)
	b.Group("pyr", n, 8)
	b.Group("ridge", n, 2)
	b.Group("qtab", 511, 9)
	b.Group("iqtab", 511, 9)
	b.Group("hist", 511, 20)
	for i := 0; i < btpc.NumContexts; i++ {
		b.Group(fmt.Sprintf("htree%d", i), 259, 10)
		b.Group(fmt.Sprintf("hweight%d", i), 259, 20)
	}

	// Global context-usage fractions (which coder a pixel lands in is
	// data-dependent; the profile supplies the distribution).
	var totalSyms uint64
	for _, c := range stats.SymbolsPerCtx {
		totalSyms += c
	}
	ctxFrac := [btpc.NumContexts]float64{}
	for i, c := range stats.SymbolsPerCtx {
		if totalSyms > 0 {
			ctxFrac[i] = float64(c) / float64(totalSyms)
		}
	}

	// input: the image arrives from the sensor/file into the image array.
	b.Loop("input", uint64(n))
	b.Write("image", perIter(rec, "image", "input", true, uint64(n)))

	// tabinit: quantization table setup (pruned to its access behaviour).
	b.Loop("tabinit", 511)
	b.Write("qtab", perIter(rec, "qtab", "tabinit", true, 511))
	b.Write("iqtab", perIter(rec, "iqtab", "tabinit", true, 511))

	// top: raw transmission of the coarsest lattice.
	top := uint64(stats.TopPixels)
	b.Loop("top", top)
	tr := b.Read("image", perIter(rec, "image", "enc/top", false, top))
	b.Write("pyr", perIter(rec, "pyr", "enc/top", true, top), tr)
	b.Write("ridge", perIter(rec, "ridge", "enc/top", true, top), tr)

	// One loop per predicted pyramid level, finest last.
	_, levels := btpc.LevelSizes(cfg.Size, cfg.Size)
	for k := len(levels) - 1; k >= 0; k-- {
		iters := uint64(levels[k])
		if iters == 0 {
			continue
		}
		scope := fmt.Sprintf("enc/level%d", k)
		b.Loop(fmt.Sprintf("level%d", k), iters)

		// Neighbourhood fetch: four neighbour reads plus the actual pixel.
		imgReads := perIter(rec, "image", scope, false, iters)
		nbrCount := (imgReads - 1) / 4
		if nbrCount < 0 {
			nbrCount = 0
		}
		var fetch []int
		for j := 0; j < 4; j++ {
			fetch = append(fetch, b.ReadSite("image", fmt.Sprintf("nbr%d", j), nbrCount))
		}
		fetch = append(fetch, b.ReadSite("image", "actual", 1))
		// Context read: pyr and ridge at the first neighbour's index —
		// the co-indexed pair that makes them merging candidates.
		pc := b.ReadSite("pyr", "ctx", perIter(rec, "pyr", scope, false, iters))
		rc := b.ReadSite("ridge", "ctx", perIter(rec, "ridge", scope, false, iters))
		classifyDeps := append(append([]int(nil), fetch...), pc, rc)

		// Symbol mapping and reconstruction lookups.
		q := b.Read("qtab", perIter(rec, "qtab", scope, false, iters), classifyDeps...)
		iq := b.Read("iqtab", perIter(rec, "iqtab", scope, false, iters), q)

		// Entropy coding: each context's tree walk is a sequential chain.
		// The six coders are the alternatives of a data-dependent
		// conditional — exactly one executes per pixel — so the chains are
		// mutually exclusive branches: they may share storage cycles
		// without conflicting, and the critical path sees the longest.
		for i := 0; i < btpc.NumContexts; i++ {
			tg := fmt.Sprintf("htree%d", i)
			wg := fmt.Sprintf("hweight%d", i)
			treeReads := perIter(rec, tg, scope, false, iters)
			treeWrites := perIter(rec, tg, scope, true, iters)
			wReads := perIter(rec, wg, scope, false, iters)
			wWrites := perIter(rec, wg, scope, true, iters)
			if treeReads == 0 && wWrites == 0 {
				continue
			}
			b.Branch(fmt.Sprintf("coder%d", i))
			chain := walkLength(treeReads, ctxFrac[i])
			prev := q
			for step := 0; step < chain; step++ {
				prev = b.Read(tg, treeReads/float64(chain), prev)
			}
			if treeWrites > 0 {
				prev = b.Write(tg, treeWrites, prev)
			}
			if wReads > 0 {
				prev = b.Read(wg, wReads, prev)
			}
			if wWrites > 0 {
				b.Write(wg, wWrites, prev)
			}
			b.Branch("")
		}

		// Rate statistics: histogram read-modify-write.
		hr := b.Read("hist", perIter(rec, "hist", scope, false, iters), q)
		b.Write("hist", perIter(rec, "hist", scope, true, iters), hr)

		// Store the coded-error magnitude and the activity class — the
		// co-indexed pyr/ridge write pair.
		b.WriteSite("pyr", "store", perIter(rec, "pyr", scope, true, iters), iq)
		b.WriteSite("ridge", "store", perIter(rec, "ridge", scope, true, iters), q)
	}
	return b.Build()
}

// buildDecoderDemonstrator profiles the BTPC *decoder* and derives its
// pruned specification — the other half of the codec system. The paper
// designs the encoder; the decoder's memory behaviour is similar but
// lighter (no neighbourhood prefetch of an input array: predictions read
// the reconstruction in place), so its exploration is a natural extension.
func buildDecoderDemonstrator(cfg DemoConfig) (*Demonstrator, error) {
	cfg.normalize()
	src := img.Synthetic(cfg.Size, cfg.Size, cfg.Seed)
	data, stats, err := btpc.Encode(src, btpc.Params{Quant: cfg.Quant}, nil)
	if err != nil {
		return nil, fmt.Errorf("core: encode for decoder profiling failed: %w", err)
	}
	rec := trace.NewRecorder()
	// No exploration step reads this profile; it tracks every distance the
	// reconstruction's size admits.
	an := reuse.NewStream(context.Background(), nil, cfg.Size*cfg.Size)
	rec.StreamAddressTrace("out", an)
	_, err = btpc.Decode(data, rec)
	rec.CloseAddressTrace("out")
	prof := an.Profile()
	if err != nil {
		return nil, fmt.Errorf("core: profiling decode failed: %w", err)
	}
	s, err := buildDecoderSpec(cfg, rec, stats)
	if err != nil {
		return nil, err
	}
	return &Demonstrator{
		Config:       cfg,
		Spec:         s,
		ImageProfile: prof,
		Rec:          rec,
		Stats:        stats,
		CycleBudget:  uint64(CyclesPerPixel) * uint64(cfg.Size) * uint64(cfg.Size),
	}, nil
}

// buildDecoderSpec is the decoder's pruned loop skeleton: the reconstructed
// image plays the image array's role (named "out"), there is no qtab, and
// the Huffman walks run on the decode side.
func buildDecoderSpec(cfg DemoConfig, rec *trace.Recorder, stats *btpc.Stats) (*spec.Spec, error) {
	n := int64(cfg.Size) * int64(cfg.Size)
	b := spec.NewBuilder(fmt.Sprintf("btpc-dec-%d", cfg.Size))
	b.Group("out", n, 8)
	b.Group("pyr", n, 8)
	b.Group("ridge", n, 2)
	b.Group("iqtab", 511, 9)
	b.Group("hist", 511, 20)
	for i := 0; i < btpc.NumContexts; i++ {
		b.Group(fmt.Sprintf("htree%d", i), 259, 10)
		b.Group(fmt.Sprintf("hweight%d", i), 259, 20)
	}
	var totalSyms uint64
	for _, c := range stats.SymbolsPerCtx {
		totalSyms += c
	}
	ctxFrac := [btpc.NumContexts]float64{}
	for i, c := range stats.SymbolsPerCtx {
		if totalSyms > 0 {
			ctxFrac[i] = float64(c) / float64(totalSyms)
		}
	}

	b.Loop("tabinit", 511)
	b.Write("iqtab", perIter(rec, "iqtab", "tabinit", true, 511))

	top := uint64(stats.TopPixels)
	b.Loop("top", top)
	tw := b.Write("out", perIter(rec, "out", "dec/top", true, top))
	b.Write("pyr", perIter(rec, "pyr", "dec/top", true, top), tw)
	b.Write("ridge", perIter(rec, "ridge", "dec/top", true, top), tw)

	_, levels := btpc.LevelSizes(cfg.Size, cfg.Size)
	for k := len(levels) - 1; k >= 0; k-- {
		iters := uint64(levels[k])
		if iters == 0 {
			continue
		}
		scope := fmt.Sprintf("dec/level%d", k)
		b.Loop(fmt.Sprintf("level%d", k), iters)
		// Neighbourhood reads come from the reconstruction itself.
		outReads := perIter(rec, "out", scope, false, iters)
		var fetch []int
		for j := 0; j < 4; j++ {
			fetch = append(fetch, b.ReadSite("out", fmt.Sprintf("nbr%d", j), outReads/4))
		}
		pc := b.ReadSite("pyr", "ctx", perIter(rec, "pyr", scope, false, iters))
		rc := b.ReadSite("ridge", "ctx", perIter(rec, "ridge", scope, false, iters))
		classifyDeps := append(append([]int(nil), fetch...), pc, rc)
		// Entropy decoding precedes the reconstruction lookup.
		var sym int
		first := true
		for i := 0; i < btpc.NumContexts; i++ {
			tg := fmt.Sprintf("htree%d", i)
			wg := fmt.Sprintf("hweight%d", i)
			treeReads := perIter(rec, tg, scope, false, iters)
			wWrites := perIter(rec, wg, scope, true, iters)
			if treeReads == 0 && wWrites == 0 {
				continue
			}
			b.Branch(fmt.Sprintf("coder%d", i))
			chain := walkLength(treeReads, ctxFrac[i])
			prev := b.Read(tg, treeReads/float64(chain), classifyDeps...)
			for step := 1; step < chain; step++ {
				prev = b.Read(tg, treeReads/float64(chain), prev)
			}
			if tw := perIter(rec, tg, scope, true, iters); tw > 0 {
				prev = b.Write(tg, tw, prev)
			}
			if wr := perIter(rec, wg, scope, false, iters); wr > 0 {
				prev = b.Read(wg, wr, prev)
			}
			if wWrites > 0 {
				prev = b.Write(wg, wWrites, prev)
			}
			if first {
				sym = prev
				first = false
			}
			b.Branch("")
		}
		iq := b.Read("iqtab", perIter(rec, "iqtab", scope, false, iters), sym)
		hr := b.Read("hist", perIter(rec, "hist", scope, false, iters), iq)
		b.Write("hist", perIter(rec, "hist", scope, true, iters), hr)
		b.WriteSite("out", "store", perIter(rec, "out", scope, true, iters), iq)
		b.WriteSite("pyr", "store", perIter(rec, "pyr", scope, true, iters), iq)
		b.WriteSite("ridge", "store", perIter(rec, "ridge", scope, true, iters), iq)
	}
	return b.Build()
}

// perIter converts a profiled scope count into an average per-iteration
// access count.
func perIter(rec *trace.Recorder, group, scope string, write bool, iters uint64) float64 {
	c := rec.ArrayScope(group, scope)
	v := c.Reads
	if write {
		v = c.Writes
	}
	return float64(v) / float64(iters)
}

// walkLength estimates the sequential tree-walk depth of a coder from its
// per-iteration read count and the fraction of pixels it codes.
func walkLength(readsPerIter, frac float64) int {
	if frac <= 0 || readsPerIter <= 0 {
		return 1
	}
	l := int(math.Round(readsPerIter / frac))
	if l < 1 {
		l = 1
	}
	// The pruned model chains only the tree-walk path (the FGK update
	// accesses parallelize with the walk in hardware), clamped at the
	// typical adaptive-code depth; rare deep walks are averaged into the
	// per-site counts, which preserve the total access volume exactly.
	l = (l + 1) / 2
	if l > 6 {
		l = 6
	}
	if l < 1 {
		l = 1
	}
	return l
}
