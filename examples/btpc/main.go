// BTPC demonstrator walkthrough: compress and verify an image with the
// paper's application, profile its memory accesses, and run the complete
// stepwise feedback methodology to regenerate the paper's tables.
//
//	go run ./examples/btpc [-size 256]
package main

import (
	"flag"
	"fmt"
	"log"

	dtse "repro"
)

var size = flag.Int("size", 256, "image side length (1024 = the paper's constraint size)")

func main() {
	flag.Parse()

	// 1. The application itself: lossless compression round trip.
	src := dtse.SyntheticImage(*size, *size, 7)
	data, stats, err := dtse.EncodeBTPC(src, dtse.CodecParams{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	back, err := dtse.DecodeBTPC(data, nil)
	if err != nil {
		log.Fatal(err)
	}
	if !src.Equal(back) {
		log.Fatal("lossless round trip failed")
	}
	fmt.Printf("BTPC lossless: %dx%d -> %d bytes (%.3f bpp), round trip OK\n",
		*size, *size, len(data), stats.BitsPerPixel())

	// Lossy operating points.
	for _, q := range []int{4, 16} {
		ld, _, err := dtse.EncodeBTPC(src, dtse.CodecParams{Quant: q}, nil)
		if err != nil {
			log.Fatal(err)
		}
		lb, err := dtse.DecodeBTPC(ld, nil)
		if err != nil {
			log.Fatal(err)
		}
		mse, _ := src.MSE(lb)
		fmt.Printf("BTPC lossy q=%-2d: %d bytes (%.3f bpp), MSE %.1f\n",
			q, len(ld), float64(len(ld)*8)/float64(*size**size), mse)
	}

	// 2. Profiling: the instrumented encoder yields the access counts the
	// exploration runs on.
	rec := dtse.NewRecorder()
	if _, _, err := dtse.EncodeBTPC(src, dtse.CodecParams{}, rec); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nProfiled %d memory accesses across %d basic groups; dominant arrays:\n",
		rec.TotalAccesses(), len(rec.Arrays()))
	for _, name := range []string{"image", "pyr", "ridge"} {
		c := rec.Array(name)
		fmt.Printf("  %-6s %9d reads %9d writes\n", name, c.Reads, c.Writes)
	}

	// 3. The methodology: every step of the paper, with the accurate cost
	// feedback driving the decisions.
	res, err := dtse.ReproduceBTPC(dtse.DemoConfig{Size: *size})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(res.Table1().Render())
	fmt.Println(res.Table2().Render())
	fmt.Println(res.Table3().Render())
	fmt.Println(res.Table4().Render())
	fmt.Printf("decisions: %s -> %s -> spare %d cycles -> %s\n",
		res.StructChoice.Label, res.HierChoice.Label,
		res.BudgetChoice.Extra, res.AllocChoice.Label)
}
