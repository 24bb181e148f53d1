// Command btpcenc compresses a binary PGM (P5) image with the BTPC coder.
//
// Usage:
//
//	btpcenc [-q quant] [-o out.btpc] [-stats] input.pgm
//
// With no input file a synthetic test image is encoded (useful for a quick
// smoke test: btpcenc -stats).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/btpc"
	"repro/internal/img"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("btpcenc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quant := fs.Int("q", 1, "quantization step (1 = lossless)")
	out := fs.String("o", "", "output file (default: input with .btpc suffix, or stdout for synthetic input)")
	stats := fs.Bool("stats", false, "print rate statistics to stderr")
	synth := fs.Int("synth", 512, "synthetic image size when no input file is given")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *synth < 1 {
		fmt.Fprintf(stderr, "btpcenc: -synth %d out of range (must be >= 1)\n", *synth)
		fs.Usage()
		return 2
	}
	if *quant < 1 || *quant > 64 {
		fmt.Fprintf(stderr, "btpcenc: -q %d out of range [1, 64]\n", *quant)
		fs.Usage()
		return 2
	}

	var src *img.Gray
	var outName string
	switch fs.NArg() {
	case 0:
		src = img.Synthetic(*synth, *synth, 1)
		outName = *out
	case 1:
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "btpcenc:", err)
			return 1
		}
		src, err = img.DecodePGM(data)
		if err != nil {
			fmt.Fprintln(stderr, "btpcenc:", err)
			return 1
		}
		outName = *out
		if outName == "" {
			outName = fs.Arg(0) + ".btpc"
		}
	default:
		fmt.Fprintf(stderr, "btpcenc: expected at most one input file, got %d\n", fs.NArg())
		fs.Usage()
		return 2
	}

	data, st, err := btpc.Encode(src, btpc.Params{Quant: *quant}, nil)
	if err != nil {
		fmt.Fprintln(stderr, "btpcenc:", err)
		return 1
	}
	if *stats {
		fmt.Fprintf(stderr, "%dx%d, %d levels, %d top pixels, %d bytes (%.3f bpp), %d escapes\n",
			st.W, st.H, st.TopLevel, st.TopPixels, len(data), st.BitsPerPixel(), st.Escapes)
		for ctx, n := range st.SymbolsPerCtx {
			fmt.Fprintf(stderr, "  context %d: %d symbols\n", ctx, n)
		}
	}
	if outName == "" {
		if _, err := stdout.Write(data); err != nil {
			fmt.Fprintln(stderr, "btpcenc:", err)
			return 1
		}
		return 0
	}
	if err := os.WriteFile(outName, data, 0o644); err != nil {
		fmt.Fprintln(stderr, "btpcenc:", err)
		return 1
	}
	fmt.Fprintf(stderr, "wrote %s (%d bytes)\n", outName, len(data))
	return 0
}
