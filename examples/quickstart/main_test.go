package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the stdout golden under testdata")

// TestStdoutGolden runs the example and pins its stdout byte for byte:
// the toy filter's memory organization and its cost. Regenerate with -update only after a deliberate output change.
func TestStdoutGolden(t *testing.T) {
	got := captureStdout(t, main)
	path := filepath.Join("testdata", "stdout.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stdout differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns what
// it wrote.
func captureStdout(t *testing.T, f func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	defer func() { os.Stdout = saved }()
	f()
	w.Close()
	return <-out
}
