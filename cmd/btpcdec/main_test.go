package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/btpc"
	"repro/internal/img"
)

func encodeSynthetic(t *testing.T, w, h int) (*img.Gray, []byte) {
	t.Helper()
	src := img.Synthetic(w, h, 3)
	data, _, err := btpc.Encode(src, btpc.Params{Quant: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return src, data
}

// TestDecodeFileRoundTrip drives run() end to end: a .btpc file on disk is
// decoded to a PGM whose pixels match the original image exactly.
func TestDecodeFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src, data := encodeSynthetic(t, 40, 24)
	in := filepath.Join(dir, "in.btpc")
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.pgm")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-o", out, in}, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	pgm, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	got, err := img.DecodePGM(pgm)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != src.W || got.H != src.H || !bytes.Equal(got.Pix, src.Pix) {
		t.Fatal("decode round trip changed the image")
	}
}

// TestDecodeStdinToStdout: with no input file the decoder reads the stream
// from stdin and writes the PGM to stdout.
func TestDecodeStdinToStdout(t *testing.T) {
	src, data := encodeSynthetic(t, 16, 16)
	var stdout, stderr bytes.Buffer
	if code := run(nil, bytes.NewReader(data), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	got, err := img.DecodePGM(stdout.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Pix, src.Pix) {
		t.Fatal("stdin decode changed the image")
	}
}

// TestDecodeUsageAndRuntimeErrors: bad invocations exit 2, bad input 1.
func TestDecodeUsageAndRuntimeErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"a", "b"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Fatalf("two inputs: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"-nosuchflag"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"-levels", "-1"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Fatalf("-levels -1: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-levels -1 out of range") {
		t.Fatalf("-levels -1: stderr %q lacks the range message", stderr.String())
	}
	stderr.Reset()
	if code := run(nil, strings.NewReader("not a btpc stream"), &stdout, &stderr); code != 1 {
		t.Fatalf("garbage stream: exit %d, want 1", code)
	}
}
