package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// Regression test: out-of-range -table/-figure selections used to print
// nothing and exit 0; they must now be rejected with a usage error.
func TestValidateSelection(t *testing.T) {
	valid := []struct{ table, figure int }{
		{0, 0}, {1, 0}, {4, 0}, {0, 1}, {0, 3}, {2, 2},
	}
	for _, c := range valid {
		if err := validateSelection(c.table, c.figure); err != nil {
			t.Errorf("validateSelection(%d, %d) = %v, want nil", c.table, c.figure, err)
		}
	}
	invalid := []struct{ table, figure int }{
		{5, 0}, {-1, 0}, {99, 0}, {0, 4}, {0, -1}, {5, 4},
	}
	for _, c := range invalid {
		if err := validateSelection(c.table, c.figure); err == nil {
			t.Errorf("validateSelection(%d, %d) = nil, want error", c.table, c.figure)
		}
	}
}

// TestRunTimeoutBestEffort: an immediately-expiring -timeout must degrade
// the whole exploration to best-effort results — exit 0, the requested
// table printed, and the deadline note on stderr — never an abort.
func TestRunTimeoutBestEffort(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-size", "64", "-timeout", "1ns", "-table", "4"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "best-effort") {
		t.Fatalf("stderr missing deadline note: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "Table 4") {
		t.Fatalf("degraded run printed no Table 4:\n%s", stdout.String())
	}
}

// TestRunCompletesSmall: an unconstrained small run prints every table and
// reports no degradation.
func TestRunCompletesSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full small-scale run skipped in -short mode")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-size", "64"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"Table 1", "Table 2", "Table 3", "Table 4", "MACP:", "Decisions:"} {
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("stdout missing %q", want)
		}
	}
	if strings.Contains(stdout.String(), "best-effort") || strings.Contains(stderr.String(), "best-effort") {
		t.Fatal("unconstrained run reported best-effort results")
	}
}

// TestRunWorkersDeterministic: the CLI's -workers width must not change a
// single output byte — the whole point of the deterministic parallel
// exploration.
func TestRunWorkersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full small-scale runs skipped in -short mode")
	}
	outputs := make([]string, 0, 2)
	for _, w := range []string{"1", "3"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-size", "64", "-workers", w}, &stdout, &stderr); code != 0 {
			t.Fatalf("-workers %s: exit %d, stderr: %s", w, code, stderr.String())
		}
		outputs = append(outputs, stdout.String())
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("-workers=1 and -workers=3 outputs differ:\n--- workers=1\n%s\n--- workers=3\n%s",
			outputs[0], outputs[1])
	}
}

// TestRunDigests pins the exact stdout bytes of whole methodology runs by
// their SHA-256: every table, figure and decision line at the small scale,
// with ablations and with in-place mapping, plus the paper-scale 1024² runs
// outside -short. Any change to an assignment, a schedule or a rendered
// number shows up here. Update a digest only after a deliberate change to
// the results, and say which output changed.
func TestRunDigests(t *testing.T) {
	for _, c := range []struct {
		args   []string
		long   bool
		sha256 string
	}{
		{[]string{"-size", "64"}, false, "126eb2af22b02ce6f082d3b329a121ee5996f9f6718f76ebaafb77e4343db188"},
		{[]string{"-size", "64", "-ablations"}, false, "5c7f077d3172b367837c5ff958d080a461edcd1f934fa6b6ad29dcc6a5008881"},
		{[]string{"-size", "64", "-inplace"}, false, "bea47b820d7726b81d74305260b8d519cdb6b2e6c11f8b78b90ccfa379c63b8a"},
		{[]string{"-size", "1024"}, true, "807d6e9ace15ebf10fb62b50c231d3f29a68db0275b5930c8e2fb783eb6bb113"},
		{[]string{"-size", "1024", "-inplace"}, true, "5dbea17f02b377937a898236a4a1563976b7d8a0d0e1b5bb3c058e49ac39af9e"},
	} {
		name := strings.Join(c.args, " ")
		t.Run(name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("paper-scale run skipped in -short mode")
			}
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr.String())
			}
			sum := sha256.Sum256(stdout.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.sha256 {
				t.Fatalf("stdout sha256 = %s, want %s\n%s", got, c.sha256, stdout.String())
			}
		})
	}
}

// TestRunUsageErrors: invalid selectors, a negative timeout and a stray
// positional argument (with every flag after it, which the flag parser
// stops at) are usage errors (exit 2) rejected before any work.
func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "5"},
		{"-figure", "9"},
		{"-timeout", "-1s"},
		{"-workers", "0"},
		{"-workers", "-4"},
		{"-size", "-4"},
		{"-size", "0"},
		{"-size", "1"},
		{"-quant", "-3"},
		{"-quant", "0"},
		{"-quant", "65"},
		{"-nosuchflag"},
		{"stray"},
		{"-size", "16", "stray", "-table", "9"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "Usage of dtse") {
			t.Errorf("%v: no usage message on stderr:\n%s", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote stdout despite the usage error", args)
		}
	}
}

// TestRunCacheDirReplay: with -cache-dir, a run cut short by -timeout is
// not stored, so the next identical run explores; a third identical run is
// replayed from the log, noted on stderr, with byte-identical stdout.
func TestRunCacheDirReplay(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-size", "64", "-table", "4"}
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
