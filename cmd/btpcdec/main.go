// Command btpcdec decompresses a BTPC stream back to a binary PGM image.
//
// Usage:
//
//	btpcdec [-o out.pgm] input.btpc
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
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("btpcdec", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output PGM file (default: input with .pgm suffix, stdout if reading stdin)")
	levels := fs.Int("levels", 0, "progressive decode: stop this many pyramid levels early (0 = full quality)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *levels < 0 {
		fmt.Fprintf(stderr, "btpcdec: -levels %d out of range (must be >= 0)\n", *levels)
		fs.Usage()
		return 2
	}

	var data []byte
	var err error
	outName := *out
	switch fs.NArg() {
	case 0:
		data, err = io.ReadAll(stdin)
	case 1:
		data, err = os.ReadFile(fs.Arg(0))
		if outName == "" {
			outName = fs.Arg(0) + ".pgm"
		}
	default:
		fmt.Fprintf(stderr, "btpcdec: expected at most one input file, got %d\n", fs.NArg())
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "btpcdec:", err)
		return 1
	}

	var g *img.Gray
	if *levels > 0 {
		g, err = btpc.DecodeProgressive(data, *levels, nil)
	} else {
		g, err = btpc.Decode(data, nil)
	}
	if err != nil {
		fmt.Fprintln(stderr, "btpcdec:", err)
		return 1
	}
	pgm := g.EncodePGM()
	if outName == "" {
		if _, err := stdout.Write(pgm); err != nil {
			fmt.Fprintln(stderr, "btpcdec:", err)
			return 1
		}
		return 0
	}
	if err := os.WriteFile(outName, pgm, 0o644); err != nil {
		fmt.Fprintln(stderr, "btpcdec:", err)
		return 1
	}
	fmt.Fprintf(stderr, "wrote %s (%dx%d)\n", outName, g.W, g.H)
	return 0
}
