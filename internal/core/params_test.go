package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/obs"
)

// TestRunAllProgressMatchesNodeCounter: every stage that searches publishes
// into the request's Progress, so after a full run its node total equals
// the observer's assign.nodes counter — the allocation sweep included —
// and the last stage entered is the sweep's assignment.
func TestRunAllProgressMatchesNodeCounter(t *testing.T) {
	for _, size := range []int{64, 128} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			o := obs.New()
			ep := DefaultEvalParams()
			ep.Obs = o
			ep.Progress = new(obs.Progress)
			if _, err := RunAll(DemoConfig{Size: size}, ep); err != nil {
				t.Fatal(err)
			}
			got := ep.Progress.Snapshot()
			want := o.Snapshot().Counters["assign.nodes"]
			if want == 0 || got.Nodes != want {
				t.Fatalf("progress nodes %d, assign.nodes counter %d", got.Nodes, want)
			}
			if got.Stage != "assign" {
				t.Fatalf("progress stage %q, want assign", got.Stage)
			}
		})
	}
}

// TestExploreAllocationsPublishesProgress: the Table 4 sweep on its own
// reports its search position.
func TestExploreAllocationsPublishesProgress(t *testing.T) {
	d, err := BuildDemonstrator(DemoConfig{Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	ep := DefaultEvalParams().ScaleTo(64)
	v, err := EvaluateContext(context.Background(), d.Spec, d.CycleBudget, "base", ep)
	if err != nil {
		t.Fatal(err)
	}
	ep.Progress = new(obs.Progress)
	if _, _, err := ExploreAllocationsContext(context.Background(), v.Spec, v.Dist, []int{4, 5}, ep); err != nil {
		t.Fatal(err)
	}
	got := ep.Progress.Snapshot()
	if got.Nodes <= 0 || got.Incumbent == nil {
		t.Fatalf("allocation sweep published nodes %d, incumbent %v", got.Nodes, got.Incumbent)
	}
}
