package sbd_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/sbd"
	"repro/internal/spec"
)

var update = flag.Bool("update", false, "rewrite testdata/schedules.golden")

// goldenBudgets lists the budgets a loop is balanced at: the weighted
// critical path, one cycle above it and halfway to the serial schedule in
// linear mode; one cycle, the longest access and the critical path in
// pipelined mode (one cycle wraps an off-chip access onto itself).
func goldenBudgets(l *spec.Loop, groups map[string]spec.BasicGroup, p sbd.Params) []int {
	if p.Pipelined {
		maxDur := 1
		for _, a := range l.Accesses {
			if d := p.Duration(groups[a.Group]); d > maxDur {
				maxDur = d
			}
		}
		return dedupe([]int{1, maxDur, sbd.WeightedCP(l, groups, p)})
	}
	cp := sbd.WeightedCP(l, groups, p)
	sum := 0
	for _, a := range l.Accesses {
		sum += p.Duration(groups[a.Group])
	}
	return dedupe([]int{cp, cp + 1, cp + (sum-cp)/2})
}

func dedupe(bs []int) []int {
	out := bs[:0]
	for _, b := range bs {
		seen := false
		for _, o := range out {
			seen = seen || o == b
		}
		if !seen {
			out = append(out, b)
		}
	}
	return out
}

// appendGolden balances every loop of s at its golden budgets, linear and
// pipelined, with groups above onChip words off-chip, and appends one line
// per schedule: the start cycles and the exact bits of the three costs.
func appendGolden(t *testing.T, buf *bytes.Buffer, s *spec.Spec, onChip int64) {
	t.Helper()
	groups := make(map[string]spec.BasicGroup, len(s.Groups))
	for _, g := range s.Groups {
		groups[g.Name] = g
	}
	for _, pipelined := range []bool{false, true} {
		p := sbd.Params{OnChipMaxWords: onChip, OffChipCycles: 2, Pipelined: pipelined}
		mode := "linear"
		if pipelined {
			mode = "pipelined"
		}
		for i := range s.Loops {
			l := &s.Loops[i]
			for _, b := range goldenBudgets(l, groups, p) {
				sc, err := sbd.BalanceLoop(l, groups, b, p)
				if err != nil {
					t.Fatalf("%s/%s %s budget %d: %v", s.Name, l.Name, mode, b, err)
				}
				fmt.Fprintf(buf, "%s/%s onchip=%d %s b=%d start=", s.Name, l.Name, onChip, mode, b)
				for j, st := range sc.Start {
					if j > 0 {
						buf.WriteByte(',')
					}
					buf.WriteString(strconv.Itoa(st))
				}
				fmt.Fprintf(buf, " cost=%016x weighted=%016x structural=%016x (%g)\n",
					math.Float64bits(sc.Cost), math.Float64bits(sc.WeightedCost),
					math.Float64bits(sc.StructuralCost), sc.Cost)
			}
		}
	}
}

// TestSchedulesGolden pins the balancer's output — every start cycle and
// the exact bits of every cost — for the 256×256 demonstrator's loops (at
// the default on-chip limit, where every group is on-chip, and at 1Ki
// words, where the three image-sized arrays move off-chip) and for 20
// seeded random loops with branches and off-chip groups, in both
// scheduling modes. Any change to placement order, tie-breaking or the
// floating-point sequence of the cost accounting shows up as a diff.
// Regenerate with -update only after a deliberate change to the schedules.
func TestSchedulesGolden(t *testing.T) {
	d, err := core.BuildDemonstrator(core.DemoConfig{Size: 256})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	appendGolden(t, &buf, d.Spec, 64*1024)
	appendGolden(t, &buf, d.Spec, 1024)
	for seed := int64(1); seed <= 20; seed++ {
		appendGolden(t, &buf, sbd.RandomSpec(seed), 64*1024)
	}
	golden := filepath.Join("testdata", "schedules.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	got := buf.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("line count differs: got %d, want %d", len(gl), len(wl))
}
