package core

import (
	"context"
	"fmt"

	"repro/internal/assign"
	"repro/internal/inplace"
	"repro/internal/memo"
	"repro/internal/sbd"
	"repro/internal/spec"
)

// This file quantifies the modeling decisions DESIGN.md calls out by
// re-running the pipeline with each decision disabled. Ablations runs the
// four studies as one, against one shared baseline evaluation; cmd/dtse
// -ablations prints it, BenchmarkAblations times it, and direction tests
// guard it.

// greedyMemories is the allocation at which the optimal and greedy
// assignments are compared.
const greedyMemories = 8

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

// Ablations evaluates the demonstrator once at its cycle budget and
// compares that baseline against four modeling decisions, in this order:
//
//   - branch exclusivity: without mutual exclusion the six Huffman coder
//     chains are scheduled as real parallel work, inflating the critical
//     path and the conflict structure;
//   - the structural conflict cost: without the iteration-independent term,
//     cold loops are free to force high port counts on shared memories;
//   - the exact branch-and-bound assignment against the greedy one (the
//     organization a designer without the optimizing tool would reach), on
//     the baseline's conflict patterns at eight memories;
//   - the in-place mapping extension. For the BTPC demonstrator the honest
//     expected result is ~zero savings: its large arrays live across the
//     whole frame.
//
// The baseline is the "with" side of the first two and the "without" side
// of the last. The study owns one run cache, as RunAllContext does (none
// under ep.NoCache), so the variants share the schedules and assignment
// answers they have in common. A failed baseline, optimal search or
// in-place evaluation is the returned error; a failed ablated side is the
// result's WithoutErr.
func Ablations(ctx context.Context, d *Demonstrator, ep EvalParams) ([]*AblationResult, error) {
	sp, ep := ep.startSpan("ablations")
	defer sp.End()
	if !ep.NoCache {
		ep.memo = memo.New(memo.Assignments, memo.Schedule)
	}
	base, err := EvaluateContext(ctx, d.Spec, d.CycleBudget, "baseline", ep)
	if err != nil {
		return nil, err
	}

	branch := &AblationResult{
		Name: "branch exclusivity",
		With: base,
		Note: "without mutual exclusion the six Huffman coders count as co-executing",
	}
	branch.Without, branch.WithoutErr = EvaluateContext(ctx, StripBranches(d.Spec), d.CycleBudget, "without branches", ep)

	structural := &AblationResult{
		Name: "structural conflict cost",
		With: base,
		Note: "without it, rarely-executed loops force multiport memories for free",
	}
	noStructural := ep
	noStructural.structuralWeight = -1 // disabled
	structural.Without, structural.WithoutErr = EvaluateContext(ctx, d.Spec, d.CycleBudget, "without structural", noStructural)

	pats := sbd.PrunePatterns(base.Dist.Patterns)
	ap := ep.assignParams()
	opt, err := ep.assign(ctx, d.Spec, pats, greedyMemories, ap)
	if err != nil {
		return nil, fmt.Errorf("core: optimal assignment: %w", err)
	}
	greedy := &AblationResult{
		Name: fmt.Sprintf("optimal vs greedy assignment (%d memories)", greedyMemories),
		With: &Variant{Label: "optimal", Spec: d.Spec, Dist: base.Dist, Asgn: opt, Cost: opt.Cost},
		Note: "the greedy solution is the paper's manual-designer baseline",
	}
	if gr, err := assign.Greedy(d.Spec, pats, ep.Tech, greedyMemories, ap); err != nil {
		greedy.WithoutErr = err
	} else {
		greedy.Without = &Variant{Label: "greedy", Spec: d.Spec, Dist: base.Dist, Asgn: gr, Cost: gr.Cost}
	}

	withInPlace := ep
	withInPlace.InPlace = true
	inPlace, err := EvaluateContext(ctx, d.Spec, d.CycleBudget, "in-place", withInPlace)
	if err != nil {
		return nil, err
	}
	return []*AblationResult{branch, structural, greedy, {
		Name:    "in-place mapping",
		With:    inPlace,
		Without: base,
		Note:    "BTPC's arrays live frame-long, so little sharing is expected",
	}}, nil
}

// InPlaceReport renders the lifetime analysis of the demonstrator spec.
func InPlaceReport(s *spec.Spec) string { return inplace.Report(s) }
