// Data-reuse exploration on a 2-D convolution workload: run the real
// (instrumented) kernel, capture the input-array read trace, derive miss
// ratios for candidate copy layers from the exact LRU reuse profile, and
// compare the resulting memory organizations — the paper's §4.4 flow on a
// different application.
//
//	go run ./examples/hierarchy
package main

import (
	"context"
	"fmt"
	"log"

	dtse "repro"
	"repro/internal/trace"
)

const (
	w, h = 320, 240
	k    = 5 // 5x5 convolution kernel
)

// runConvolution executes an instrumented 5x5 convolution and returns the
// recorder with counts and the reuse profile of the input-array read
// trace, analyzed while the kernel runs up to the largest layer size main
// prints, 8 rows.
func runConvolution() (*trace.Recorder, *dtse.ReuseProfile) {
	rec := trace.NewRecorder()
	an := dtse.NewReuseStream(context.Background(), 8*w)
	rec.StreamAddressTrace("in", an)
	in := trace.NewArray2D(rec, "in", w, h)
	out := trace.NewArray2D(rec, "out", w, h)
	coef := trace.NewArray1D(rec, "coef", k*k)

	rec.Push("input")
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			in.Set(x, y, int32((x*7+y*13)&0xFF))
		}
	}
	rec.Pop()
	rec.Push("conv")
	for y := k / 2; y < h-k/2; y++ {
		for x := k / 2; x < w-k/2; x++ {
			var acc int32
			for dy := -k / 2; dy <= k/2; dy++ {
				for dx := -k / 2; dx <= k/2; dx++ {
					acc += in.Get(x+dx, y+dy) * coef.Get((dy+k/2)*k+dx+k/2)
				}
			}
			out.Set(x, y, acc>>8)
		}
	}
	rec.Pop()
	rec.CloseAddressTrace("in")
	return rec, an.Profile()
}

// buildSpec writes the pruned convolution specification with the profiled
// per-iteration counts.
func buildSpec(rec *trace.Recorder) *dtse.Spec {
	iters := uint64((w - k + 1) * (h - k + 1))
	b := dtse.NewSpec("conv5x5")
	b.Group("in", w*h, 8)
	b.Group("out", w*h, 16)
	b.Group("coef", k*k, 12)

	b.Loop("input", w*h)
	b.Write("in", 1)

	b.Loop("conv", iters)
	reads := float64(rec.ArrayScope("in", "conv").Reads) / float64(iters)
	// The designer prunes the 25-deep unrolled kernel to a handful of
	// representative parallel read sites plus the accumulation chain.
	const sites = 5
	var deps []int
	for i := 0; i < sites; i++ {
		deps = append(deps, b.Read("in", reads/sites))
	}
	c := b.Read("coef", float64(rec.ArrayScope("coef", "conv").Reads)/float64(iters), deps...)
	b.Write("out", 1, c)
	return b.MustBuild()
}

func main() {
	rec, prof := runConvolution()
	s := buildSpec(rec)

	fmt.Printf("5x5 convolution on %dx%d: %d accesses profiled\n", w, h, rec.TotalAccesses())
	fmt.Println("input-array LRU miss ratio by candidate layer size:")
	for _, size := range []int64{k, k * k, 2 * w, k * w, 8 * w} {
		m, err := prof.MissRatio(size)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %6d words: %5.1f%%\n", size, 100*m)
	}

	ep := dtse.DefaultParams()
	techCopy := *ep.Tech
	techCopy.OnChipMaxWords = 16 * 1024 // frames live off-chip at this scale
	techCopy.FramePeriod = float64(w*h) / 1e6
	ep.Tech = &techCopy

	budget := uint64(30 * w * h)
	options := []struct {
		label  string
		layers []dtse.Layer
	}{
		{"no hierarchy", nil},
		{"window registers (25 words)", []dtse.Layer{{Name: "win", Words: k * k}}},
		{"line buffer (5 rows)", []dtse.Layer{{Name: "lines", Words: k * w}}},
		{"window + line buffer", []dtse.Layer{{Name: "win", Words: k * k}, {Name: "lines", Words: k * w}}},
	}
	fmt.Printf("\n%-30s %10s %10s %10s\n", "hierarchy", "area mm²", "on-chip mW", "off-chip mW")
	for _, opt := range options {
		hplan, err := dtse.PlanHierarchy("in", opt.layers, prof)
		if err != nil {
			log.Fatal(err)
		}
		applied, err := dtse.ApplyHierarchy(s, hplan, 8)
		if err != nil {
			log.Fatal(err)
		}
		v, err := dtse.Explore(applied, budget, ep)
		if err != nil {
			log.Fatalf("%s: %v", opt.label, err)
		}
		fmt.Printf("%-30s %10.1f %10.1f %10.1f\n",
			opt.label, v.Cost.OnChipArea, v.Cost.OnChipPower, v.Cost.OffChipPower)
	}
	fmt.Println("\n(line buffers capture the vertical reuse a register window cannot,")
	fmt.Println(" at the price of on-chip area — the same trade-off as the paper's Table 2)")
}
