package spec_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/canonical.golden from the current encoder")

// canonicalCorpus is the pinned spec corpus: the BTPC demonstrator at two
// sizes, the workload generators, the ATM switch, an edge-case spec and seeded hostile specs.
func canonicalCorpus(t *testing.T) []*spec.Spec {
	t.Helper()
	var out []*spec.Spec
	for _, size := range []int{64, 256} {
		d, err := core.BuildDemonstrator(core.DemoConfig{Size: size})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d.Spec)
	}
	gens := []func() (*spec.Spec, workloads.Context, error){
		func() (*spec.Spec, workloads.Context, error) { return workloads.MotionEstimation(176, 144, 16, 7) },
		func() (*spec.Spec, workloads.Context, error) { return workloads.Wavelet(256, 256, 3) },
		func() (*spec.Spec, workloads.Context, error) { return workloads.FIRFilter(48_000, 64) },
		func() (*spec.Spec, workloads.Context, error) { return workloads.ATMSwitch("atm-shared", true) },
		func() (*spec.Spec, workloads.Context, error) { return workloads.ATMSwitch("atm-partitioned", false) },
	}
	for _, gen := range gens {
		s, _, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	out = append(out, spec.EdgeSpec())
	for seed := int64(1); seed <= 8; seed++ {
		out = append(out, spec.HostileSpec(seed))
	}
	return out
}

// TestCanonicalGolden pins the canonical serialization (WriteJSON) of the
// corpus byte for byte. These bytes are the server's dedup keys, disk-tier
// keys, handoff keys and ring-routing fingerprints, and cmd/specexplore's
// disk keys: a change here orphans every persisted cache entry. Regenerate
// with -update only for a deliberate format change.
func TestCanonicalGolden(t *testing.T) {
	var got bytes.Buffer
	for i, s := range canonicalCorpus(t) {
		fmt.Fprintf(&got, "=== %d\n", i)
		if err := s.WriteJSON(&got); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
	path := filepath.Join("testdata", "canonical.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			t.Fatalf("canonical bytes differ at line %d:\n got %q\nwant %q", i+1, g[i], w[i])
		}
	}
	t.Fatalf("canonical bytes differ in length: %d lines, want %d", len(g), len(w))
}
