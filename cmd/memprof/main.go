// Command memprof prints the profiled memory-access counts of the BTPC
// encoder — the §4.1 basic-group analysis view the designer uses to find
// the dominant arrays — plus the reuse-distance summary of the image array.
//
// Usage:
//
//	memprof [-size 1024] [-seed 1] [-quant 1] [-scopes]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"repro/internal/btpc"
	"repro/internal/img"
	"repro/internal/reuse"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// validateFlags rejects parameter values the encoder would choke on.
func validateFlags(size int, quant int) error {
	if size < 2 {
		return fmt.Errorf("memprof: -size %d out of range (must be >= 2)", size)
	}
	if quant < 1 || quant > 64 {
		return fmt.Errorf("memprof: -quant %d out of range [1, 64]", quant)
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	size := fs.Int("size", 1024, "image side length")
	seed := fs.Uint64("seed", 1, "synthetic image seed")
	quant := fs.Int("quant", 1, "quantization step")
	scopes := fs.Bool("scopes", false, "also print per-loop-scope counts for the large arrays")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "memprof: unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return 2
	}
	if err := validateFlags(*size, *quant); err != nil {
		fmt.Fprintln(stderr, err)
		fs.Usage()
		return 2
	}

	// The reuse summary's rows, in words; the analysis tracks the largest.
	rows := []int64{4, 12, 64, 256, 1024, 5 * int64(*size), 4 * int64(*size) * int64(*size) / 100}
	rec := trace.NewRecorder()
	an := reuse.NewStream(context.Background(), nil, int(slices.Max(rows)))
	rec.StreamAddressTrace("image", an)
	src := img.Synthetic(*size, *size, *seed)
	_, stats, err := btpc.Encode(src, btpc.Params{Quant: *quant}, rec)
	rec.CloseAddressTrace("image")
	prof := an.Profile()
	if err != nil {
		fmt.Fprintln(stderr, "memprof:", err)
		return 1
	}

	fmt.Fprintf(stdout, "BTPC encoder profile, %dx%d image, quant %d, %.3f bpp\n\n",
		*size, *size, *quant, stats.BitsPerPixel())
	fmt.Fprint(stdout, rec.Report())

	fmt.Fprintf(stdout, "\nimage array reuse (LRU miss ratio by buffer size):\n")
	for _, s := range rows {
		m, err := prof.MissRatio(s)
		if err != nil {
			fmt.Fprintln(stderr, "memprof:", err)
			return 1
		}
		fmt.Fprintf(stdout, "  %8d words: %5.1f%%\n", s, 100*m)
	}

	if *scopes {
		for _, arr := range []string{"image", "pyr", "ridge"} {
			fmt.Fprintf(stdout, "\n%s per scope:\n", arr)
			type row struct {
				scope string
				c     trace.Counts
			}
			var rows []row
			for _, scope := range scopeList(rec, arr) {
				rows = append(rows, row{scope, rec.ArrayScope(arr, scope)})
			}
			sort.Slice(rows, func(i, j int) bool { return rows[i].scope < rows[j].scope })
			for _, r := range rows {
				fmt.Fprintf(stdout, "  %-16s %12d reads %12d writes\n", r.scope, r.c.Reads, r.c.Writes)
			}
		}
	}
	return 0
}

// scopeList enumerates the scopes that actually saw accesses to arr.
func scopeList(rec *trace.Recorder, arr string) []string {
	var out []string
	for _, scope := range []string{"", "input", "tabinit", "enc/top"} {
		if rec.ArrayScope(arr, scope).Total() > 0 {
			out = append(out, scope)
		}
	}
	for k := 0; k < 32; k++ {
		scope := fmt.Sprintf("enc/level%d", k)
		if rec.ArrayScope(arr, scope).Total() > 0 {
			out = append(out, scope)
		}
	}
	return out
}
