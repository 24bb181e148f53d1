package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRunFlagErrors: an unknown flag, a flag of the retired single-sample
// report, or a stray argument exits 2 without running the sweep.
func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-nosuchflag"},
		{"-cpus", "1"},
		{"-bench", "x"},
		{"extra"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}

// TestRunBadOutPath: an unwritable -out path is an I/O failure (exit 1),
// reported before any leg of the sweep runs.
func TestRunBadOutPath(t *testing.T) {
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := run([]string{"-out", filepath.Join(t.TempDir(), "no", "such", "dir", "x.json")}, &stdout, &stderr)
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("run took %v; the bad path must fail before the sweep", elapsed)
	}
	if code != 1 {
		t.Fatalf("run = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "benchjson:") {
		t.Fatalf("stderr missing error prefix:\n%s", stderr.String())
	}
	if strings.Contains(stderr.String(), "running cluster leg") {
		t.Fatalf("a cluster leg ran before the bad path failed:\n%s", stderr.String())
	}
}

// TestClusterCacheBytes: a three-member ring gets a cap of the working
// set's order, and a one-member ring, whose one shard is the whole set,
// fails the sweep with the shard-does-not-fit error.
func TestClusterCacheBytes(t *testing.T) {
	bodies, routes, err := clusterWorkload()
	if err != nil {
		t.Fatal(err)
	}
	bodies, routes = bodies[:6], routes[:6]
	ring := []string{"http://n1", "http://n2", "http://n3"}
	capBytes, err := clusterCacheBytes(bodies, routes, [][]string{ring})
	if err != nil {
		t.Fatal(err)
	}
	_, err = clusterCacheBytes(bodies, routes, [][]string{{"http://n1"}})
	if err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Fatalf("a one-member ring derived a cap (err %v); want the shard-does-not-fit error", err)
	}
	// Six responses are accounted at 1-2 KB each.
	if capBytes < 1<<10 || capBytes >= 12<<10 {
		t.Fatalf("cap %d bytes for six responses", capBytes)
	}
}
