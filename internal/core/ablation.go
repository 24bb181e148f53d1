package core

import (
	"context"
	"fmt"

	"repro/internal/assign"
	"repro/internal/inplace"
	"repro/internal/sbd"
	"repro/internal/spec"
)

// This file quantifies the modeling decisions DESIGN.md calls out by
// re-running the pipeline with each decision disabled. The ablations are
// exercised by the benchmark harness (BenchmarkAblation*) and guarded by
// direction tests.

// StripBranches returns a clone of s with all conditional-branch tags
// removed: mutually exclusive alternatives are then treated as co-executing
// code, the modeling error the branch mechanism exists to avoid.
func StripBranches(s *spec.Spec) *spec.Spec {
	c := s.Clone()
	c.Name = s.Name + "+nobranch"
	for li := range c.Loops {
		for ai := range c.Loops[li].Accesses {
			c.Loops[li].Accesses[ai].Branch = ""
		}
	}
	return c
}

// AblationResult compares a baseline evaluation against the same evaluation
// with one modeling decision disabled.
type AblationResult struct {
	Name       string
	With       *Variant
	Without    *Variant
	Note       string
	WithoutErr error // set when the ablated pipeline cannot even complete
}

// AblationBranchExclusivity evaluates the demonstrator with the six-coder
// mutual exclusion removed: every coder chain is then scheduled as real
// parallel work, inflating the critical path and the conflict structure.
func AblationBranchExclusivity(d *Demonstrator, ep EvalParams) *AblationResult {
	res := &AblationResult{
		Name: "branch exclusivity",
		Note: "without mutual exclusion the six Huffman coders count as co-executing",
	}
	with, err := EvaluateContext(context.Background(), d.Spec, d.CycleBudget, "with branches", ep)
	if err != nil {
		res.WithoutErr = err
		return res
	}
	res.With = with
	stripped := StripBranches(d.Spec)
	without, err := EvaluateContext(context.Background(), stripped, d.CycleBudget, "without branches", ep)
	if err != nil {
		res.WithoutErr = err
		return res
	}
	res.Without = without
	return res
}

// AblationStructuralCost evaluates the demonstrator without the
// iteration-independent conflict term: cold loops are then free to force
// high port counts on shared memories.
func AblationStructuralCost(d *Demonstrator, ep EvalParams) *AblationResult {
	res := &AblationResult{
		Name: "structural conflict cost",
		Note: "without it, rarely-executed loops force multiport memories for free",
	}
	with, err := EvaluateContext(context.Background(), d.Spec, d.CycleBudget, "with structural", ep)
	if err != nil {
		res.WithoutErr = err
		return res
	}
	res.With = with
	ep.structuralWeight = -1 // disabled
	without, err := EvaluateContext(context.Background(), d.Spec, d.CycleBudget, "without structural", ep)
	if err != nil {
		res.WithoutErr = err
		return res
	}
	res.Without = without
	return res
}

// AblationGreedyAssignment compares the exact branch-and-bound assignment
// against the greedy-only baseline (the organization a designer without the
// optimizing tool would reach) at the given allocation.
func AblationGreedyAssignment(d *Demonstrator, ep EvalParams, onChip int) (*AblationResult, error) {
	dist, err := sbd.DistributeContext(context.Background(), d.Spec, d.CycleBudget, ep.sbdParams())
	if err != nil {
		return nil, err
	}
	pats := sbd.PrunePatterns(dist.Patterns)
	opt, err := assign.AssignContext(context.Background(), d.Spec, pats, ep.Tech, onChip, ep.assignParams())
	if err != nil {
		return nil, err
	}
	gr, err := assign.Greedy(d.Spec, pats, ep.Tech, onChip, ep.assignParams())
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name:    fmt.Sprintf("optimal vs greedy assignment (%d memories)", onChip),
		With:    &Variant{Label: "optimal", Spec: d.Spec, Dist: dist, Asgn: opt, Cost: opt.Cost},
		Without: &Variant{Label: "greedy", Spec: d.Spec, Dist: dist, Asgn: gr, Cost: gr.Cost},
		Note:    "the greedy solution is the paper's manual-designer baseline",
	}, nil
}

// AblationInPlace compares assignments with and without the in-place
// mapping extension. For the BTPC demonstrator the honest expected result
// is ~zero savings: its large arrays live across the whole frame.
func AblationInPlace(d *Demonstrator, ep EvalParams) (*AblationResult, error) {
	with := ep
	with.InPlace = true
	v1, err := EvaluateContext(context.Background(), d.Spec, d.CycleBudget, "in-place", with)
	if err != nil {
		return nil, err
	}
	v0, err := EvaluateContext(context.Background(), d.Spec, d.CycleBudget, "plain", ep)
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name:    "in-place mapping",
		With:    v1,
		Without: v0,
		Note:    "BTPC's arrays live frame-long, so little sharing is expected",
	}, nil
}

// InPlaceReport renders the lifetime analysis of the demonstrator spec.
func InPlaceReport(s *spec.Spec) string { return inplace.Report(s) }
