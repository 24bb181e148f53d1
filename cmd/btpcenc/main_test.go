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

// TestEncodeFileRoundTrip drives run() end to end: a PGM on disk is
// encoded to a .btpc file that the library decoder reconstructs exactly
// (quant 1 is lossless).
func TestEncodeFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := img.Synthetic(48, 32, 7)
	in := filepath.Join(dir, "in.pgm")
	if err := os.WriteFile(in, src.EncodePGM(), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{in}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(in + ".btpc")
	if err != nil {
		t.Fatal(err)
	}
	got, err := btpc.Decode(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != src.W || got.H != src.H || !bytes.Equal(got.Pix, src.Pix) {
		t.Fatal("lossless encode round trip changed the image")
	}
}

// TestEncodeSyntheticToStdout: with no input file the encoder emits a
// synthetic image's stream on stdout, decodable by the library.
func TestEncodeSyntheticToStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-synth", "32", "-stats"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	got, err := btpc.Decode(stdout.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := img.Synthetic(32, 32, 1)
	if got.W != 32 || got.H != 32 || !bytes.Equal(got.Pix, want.Pix) {
		t.Fatal("synthetic stream did not decode back to the synthetic image")
	}
	if !bytes.Contains(stderr.Bytes(), []byte("bpp")) {
		t.Fatalf("-stats printed no rate line: %s", stderr.String())
	}
}

// TestEncodeUsageErrors: bad invocations exit 2, runtime failures exit 1.
func TestEncodeUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"a.pgm", "b.pgm"}, &stdout, &stderr); code != 2 {
		t.Fatalf("two inputs: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"-nosuchflag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
	for _, synth := range []string{"0", "-1"} {
		stderr.Reset()
		if code := run([]string{"-synth", synth}, &stdout, &stderr); code != 2 {
			t.Fatalf("-synth %s: exit %d, want 2", synth, code)
		}
		if !strings.Contains(stderr.String(), "-synth "+synth+" out of range") {
			t.Fatalf("-synth %s: stderr %q lacks the range message", synth, stderr.String())
		}
	}
	for _, q := range []string{"0", "-3", "65"} {
		stderr.Reset()
		if code := run([]string{"-synth", "8", "-q", q}, &stdout, &stderr); code != 2 {
			t.Fatalf("-q %s: exit %d, want 2", q, code)
		}
		if !strings.Contains(stderr.String(), "-q "+q+" out of range") || !strings.Contains(stderr.String(), "Usage") {
			t.Fatalf("-q %s: stderr %q lacks the range message or the usage", q, stderr.String())
		}
	}
	stderr.Reset()
	if code := run([]string{filepath.Join(t.TempDir(), "missing.pgm")}, &stdout, &stderr); code != 1 {
		t.Fatalf("missing input: exit %d, want 1", code)
	}
}
