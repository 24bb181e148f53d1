package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		size    int
		quant   int
		wantErr bool
	}{
		{"defaults", 1024, 1, false},
		{"small", 2, 3, false},
		{"size too small", 1, 1, true},
		{"zero size", 0, 1, true},
		{"zero quant", 64, 0, true},
		{"negative quant", 64, -2, true},
		{"largest quant", 64, 64, false},
		{"quant too large", 64, 65, true},
	}
	for _, c := range cases {
		err := validateFlags(c.size, c.quant)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, wantErr %v", c.name, err, c.wantErr)
		}
	}
}

// TestRunDefault: the plain profile run must report the dominant arrays and
// the reuse summary, and exit 0.
func TestRunDefault(t *testing.T) {
	var out, errB bytes.Buffer
	if code := run([]string{"-size", "64"}, &out, &errB); code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, errB.String())
	}
	s := out.String()
	for _, want := range []string{
		"BTPC encoder profile, 64x64 image",
		"image array reuse (LRU miss ratio by buffer size):",
		"image", "pyr", "ridge",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "per scope:") {
		t.Error("per-scope section printed without -scopes")
	}
}

// TestRunScopes: -scopes adds the per-loop-scope breakdown of the large
// arrays.
func TestRunScopes(t *testing.T) {
	var out, errB bytes.Buffer
	if code := run([]string{"-size", "64", "-scopes"}, &out, &errB); code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, errB.String())
	}
	s := out.String()
	for _, want := range []string{"image per scope:", "pyr per scope:", "ridge per scope:", "reads"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunFlagErrors: invalid flags and a stray positional argument exit 2
// without producing a profile.
func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-size", "1"},
		{"-quant", "0"},
		{"-quant", "65"},
		{"-nosuchflag"},
		{"stray"},
		{"-size", "16", "stray", "-quant", "0"},
	}
	for _, args := range cases {
		var out, errB bytes.Buffer
		if code := run(args, &out, &errB); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, errB.String())
		}
		if !strings.Contains(errB.String(), "Usage of memprof") {
			t.Errorf("run(%v) printed no usage:\n%s", args, errB.String())
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) wrote output despite flag error:\n%s", args, out.String())
		}
	}
}

var update = flag.Bool("update", false, "rewrite the stdout goldens under testdata")

// TestStdoutGolden pins memprof's stdout byte for byte, with and without
// -scopes, at 256² and at the paper's 1024²: every array count, every
// per-loop tally and the reuse summary of the image trace. A change to the
// recorder or the reuse analysis that alters any profiled number shows up
// here. Regenerate with -update only after a deliberate output change.
func TestStdoutGolden(t *testing.T) {
	for _, c := range []struct {
		args   []string
		golden string
	}{
		{[]string{"-size", "256"}, "stdout_256.golden"},
		{[]string{"-size", "256", "-scopes"}, "stdout_256_scopes.golden"},
		{[]string{"-size", "1024"}, "stdout_1024.golden"},
		{[]string{"-size", "1024", "-scopes"}, "stdout_1024_scopes.golden"},
	} {
		t.Run(c.golden, func(t *testing.T) {
			var out, errB bytes.Buffer
			if code := run(c.args, &out, &errB); code != 0 {
				t.Fatalf("run(%v) = %d, stderr:\n%s", c.args, code, errB.String())
			}
			path := filepath.Join("testdata", c.golden)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("run(%v) stdout differs from %s:\ngot:\n%s\nwant:\n%s", c.args, path, out.String(), want)
			}
		})
	}
}
