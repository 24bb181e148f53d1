package core

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/btpc"
	"repro/internal/img"
	"repro/internal/reuse"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata")

// decoderScopes lists every scope label the BTPC decoder can push: the
// table setup, the raw top lattice, and one decoded and one interpolated
// scope per pyramid level.
func decoderScopes() []string {
	out := []string{"", "tabinit", "dec/top"}
	for k := 0; k < 32; k++ {
		out = append(out, fmt.Sprintf("dec/level%d", k))
	}
	for k := 0; k < 32; k++ {
		out = append(out, fmt.Sprintf("dec/interp%d", k))
	}
	return out
}

// TestDecoderCountsGolden pins the profiled counts of the BTPC decoder at
// 64² and 256²: the recorder's report over every array, the per-scope
// tallies of the three image-sized arrays, and the reuse summary of the
// reconstruction's read trace. Regenerate with -update only after a
// deliberate change to the decoder or the recorder.
func TestDecoderCountsGolden(t *testing.T) {
	var b bytes.Buffer
	for _, size := range []int{64, 256} {
		data, _, err := btpc.Encode(img.Synthetic(size, size, 1), btpc.Params{Quant: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		// The stream tracks every distance the reconstruction's size admits.
		an := reuse.NewStream(context.Background(), nil, size*size)
		rec.StreamAddressTrace("out", an)
		_, err = btpc.Decode(data, rec)
		rec.CloseAddressTrace("out")
		p := an.Profile()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== decoder %dx%d\n", size, size)
		b.WriteString(rec.Report())
		for _, arr := range []string{"out", "pyr", "ridge"} {
			fmt.Fprintf(&b, "%s per scope:\n", arr)
			for _, scope := range decoderScopes() {
				if c := rec.ArrayScope(arr, scope); c.Total() > 0 {
					fmt.Fprintf(&b, "  %-16q %12d reads %12d writes\n", scope, c.Reads, c.Writes)
				}
			}
		}
		fmt.Fprintf(&b, "out reuse: total %d cold %d", p.Total(), p.Cold())
		for _, s := range []int64{1, 4, 12, 64, 256, 1024, int64(5 * size)} {
			m, err := p.MissRatio(s)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, " miss(%d)=%.12f", s, m)
		}
		b.WriteString("\n")
	}
	path := filepath.Join("testdata", "decoder.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("decoder counts differ from %s:\ngot:\n%s\nwant:\n%s", path, b.String(), want)
	}
}
