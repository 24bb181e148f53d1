package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testSpecJSON = `{
  "name": "hand",
  "groups": [{"name": "buf", "words": 1024, "bits": 12}],
  "loops": [
    {"name": "main", "iterations": 5000, "accesses": [
      {"group": "buf", "count": 2},
      {"group": "buf", "write": true, "count": 1, "deps": [0]}
    ]}
  ]
}`

func writeSpec(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(p, []byte(testSpecJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name      string
		onchip    int
		threshold int64
		frame     float64
		wantErr   bool
	}{
		{"defaults", 4, 64 * 1024, 1.0, false},
		{"one memory, zero threshold", 1, 0, 0.001, false},
		{"zero onchip", 0, 1024, 1.0, true},
		{"negative onchip", -3, 1024, 1.0, true},
		{"negative threshold", 4, -1, 1.0, true},
		{"zero frame", 4, 1024, 0, true},
		{"negative frame", 4, 1024, -2.5, true},
	}
	for _, c := range cases {
		err := validateFlags(c.onchip, c.threshold, c.frame)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, wantErr %v", c.name, err, c.wantErr)
		}
	}
}

// TestRunExploresSpec is the end-to-end happy path: a JSON spec on disk is
// explored and the organization summary lands on stdout with exit 0.
func TestRunExploresSpec(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-budget", "50000", writeSpec(t)}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{`spec "hand"`, "1 basic groups", "budget 50000 cycles", "cost:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stdout missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(stderr.String(), "best-effort") {
		t.Fatalf("unconstrained run reported best-effort: %s", stderr.String())
	}
}

// TestRunTimeoutBestEffort: an immediately-expiring -timeout still exits 0
// with a valid organization, flagged best-effort on stderr.
func TestRunTimeoutBestEffort(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-budget", "50000", "-timeout", "1ns", writeSpec(t)}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "best-effort, not proven optimal") {
		t.Fatalf("stderr missing best-effort note: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "cost:") {
		t.Fatalf("degraded run printed no organization:\n%s", stdout.String())
	}
}

// TestRunLifetimes: -lifetimes prints the analysis and skips exploration,
// so no -budget is needed.
func TestRunLifetimes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-lifetimes", writeSpec(t)}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if stdout.Len() == 0 {
		t.Fatal("no lifetime report")
	}
}

// TestRunUsageErrors: every invalid invocation must exit 2 with a usage
// message, before any exploration work happens.
func TestRunUsageErrors(t *testing.T) {
	sp := writeSpec(t)
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-nosuchflag", sp}},
		{"zero onchip", []string{"-budget", "50000", "-onchip", "0", sp}},
		{"negative onchip", []string{"-budget", "50000", "-onchip", "-2", sp}},
		{"negative threshold", []string{"-budget", "50000", "-threshold", "-1", sp}},
		{"zero frame", []string{"-budget", "50000", "-frame", "0", sp}},
		{"negative frame", []string{"-budget", "50000", "-frame", "-1.5", sp}},
		{"negative timeout", []string{"-budget", "50000", "-timeout", "-1s", sp}},
		{"no spec file", []string{"-budget", "50000"}},
		{"two spec files", []string{"-budget", "50000", sp, sp}},
		{"missing budget", []string{sp}},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", c.name, code, stderr.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("%s: no usage message on stderr", c.name)
		}
	}
}

// TestRunMissingFile: a nonexistent spec path is a runtime error (exit 1),
// not a usage error.
func TestRunMissingFile(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-budget", "50000", filepath.Join(t.TempDir(), "nope.json")}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}
