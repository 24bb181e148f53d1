package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/knobs.golden from the current output")

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

// knobsSpecJSON is a frame-difference spec sized so that every knob moves
// the answer: two frames above the default threshold, a mid-sized
// difference buffer, and three small tables whose lifetimes are disjoint
// enough for in-place sharing.
const knobsSpecJSON = `{
  "name": "knobs",
  "groups": [
    {"name": "cur", "words": 101376, "bits": 8},
    {"name": "prev", "words": 101376, "bits": 8},
    {"name": "diff", "words": 25344, "bits": 16},
    {"name": "line", "words": 352, "bits": 8},
    {"name": "coef", "words": 64, "bits": 12},
    {"name": "hist", "words": 256, "bits": 16}
  ],
  "loops": [
    {"name": "copy", "iterations": 25344, "accesses": [
      {"group": "cur", "count": 4},
      {"group": "line", "count": 1},
      {"group": "line", "write": true, "count": 1, "deps": [0]},
      {"group": "diff", "write": true, "count": 1, "deps": [0, 1]}
    ]},
    {"name": "filter", "iterations": 25344, "accesses": [
      {"group": "line", "count": 3},
      {"group": "coef", "count": 3},
      {"group": "diff", "count": 1},
      {"group": "diff", "write": true, "count": 1, "deps": [0, 1, 2]}
    ]},
    {"name": "hist", "iterations": 25344, "accesses": [
      {"group": "diff", "count": 1},
      {"group": "hist", "count": 1, "deps": [0]},
      {"group": "hist", "write": true, "count": 1, "deps": [1]}
    ]},
    {"name": "update", "iterations": 101376, "accesses": [
      {"group": "cur", "count": 1},
      {"group": "prev", "count": 1},
      {"group": "prev", "write": true, "count": 1, "deps": [0]}
    ]}
  ]
}`

// TestKnobsGolden pins stdout for one spec under the defaults and under
// each spec-mode knob: -threshold 0 (which selects the default 64Ki),
// -frame, the full knob row the server's golden corpus also posts, and a
// nonzero threshold that moves groups off chip in both the budget
// distribution and the assignment. Regenerate with -update only for a
// deliberate output change.
func TestKnobsGolden(t *testing.T) {
	p := filepath.Join(t.TempDir(), "knobs.json")
	if err := os.WriteFile(p, []byte(knobsSpecJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	rows := [][]string{
		nil,
		{"-threshold", "0", "-frame", "0.5"},
		{"-onchip", "2", "-threshold", "0", "-frame", "0.5", "-inplace", "-interconnect"},
		{"-onchip", "2", "-threshold", "300", "-inplace"},
	}
	var got bytes.Buffer
	for _, row := range rows {
		var stdout, stderr bytes.Buffer
		args := append(append([]string{"-budget", "720000"}, row...), p)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", row, code, stderr.String())
		}
		name := strings.Join(row, " ")
		if name == "" {
			name = "defaults"
		}
		fmt.Fprintf(&got, "== %s\n%s", name, stdout.Bytes())
	}

	golden := filepath.Join("testdata", "knobs.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("stdout differs from %s (rerun with -update if intentional):\ngot:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}

// TestRunCacheDirReplay: with -cache-dir, a run cut short by -timeout is
// not stored, so the next identical run explores; a third identical run is
// replayed from the log, noted on stderr, with byte-identical stdout.
func TestRunCacheDirReplay(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-budget", "50000", writeSpec(t)}
	const note = "(result served from"
	runOnce := func(extra ...string) (stdout, stderr string) {
		t.Helper()
		var out, errb bytes.Buffer
		if code := run(append(append([]string{"-cache-dir", dir}, extra...), args...), &out, &errb); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb.String())
		}
		return out.String(), errb.String()
	}
	if _, stderr := runOnce("-timeout", "1ns"); !strings.Contains(stderr, "best-effort") || strings.Contains(stderr, note) {
		t.Fatalf("-timeout 1ns run: want an explored best-effort run, stderr: %s", stderr)
	}
	first, stderr := runOnce()
	if strings.Contains(stderr, note) {
		t.Fatalf("the run after a cut-short one was replayed; the degraded output was stored: %s", stderr)
	}
	second, stderr := runOnce()
	if !strings.Contains(stderr, note) {
		t.Fatalf("identical rerun was not replayed from the log, stderr: %s", stderr)
	}
	if first != second {
		t.Fatalf("replayed stdout differs from the explored run:\n%s\nvs\n%s", first, second)
	}
}
