package core

import (
	"context"
	"fmt"

	"repro/internal/memo"
	"repro/internal/report"
	"repro/internal/reuse"
)

// Results is the complete output of one methodology run: every explored
// alternative per step, the decisions taken, and the final organization.
type Results struct {
	Demo *Demonstrator
	MACP MACPReport

	Structuring  []*Variant // Table 1
	StructChoice *Variant

	Hierarchy   []*Variant // Table 2
	Hierarchies []*reuse.Hierarchy
	HierChoice  *Variant
	HierPlan    *reuse.Hierarchy

	Budgets      []*BudgetPoint // Table 3
	BudgetChoice *BudgetPoint

	Allocations []*Variant // Table 4
	AllocCounts []int
	AllocChoice *Variant

	Final *Variant
}

// RunAll executes the full stepwise feedback methodology on the BTPC
// demonstrator: profile → prune → structure → hierarchy → cycle budget →
// allocation, choosing at each step from the accurate cost feedback.
func RunAll(cfg DemoConfig, ep EvalParams) (*Results, error) {
	return RunAllContext(context.Background(), cfg, ep)
}

// RunAllContext is RunAll with deadline and cancellation support. The run is
// *anytime*: when ctx expires, every remaining step degrades (sweeps keep
// their reference row, searches return their incumbents flagged
// Optimal=false) and a complete, valid Results is still produced. The
// profiling encode itself is not cancelable; the context takes effect from
// the reuse analysis and the structuring step onward.
func RunAllContext(ctx context.Context, cfg DemoConfig, ep EvalParams) (*Results, error) {
	root, ep := ep.startSpan("run_all")
	defer root.End()

	// The image array's reuse analysis streams beside the profiling encode,
	// on its own goroutine, and finishes the trace's tail beside step 1.
	// Under a dead ctx it truncates; the encode and the structuring baseline
	// always run. It tracks the depth the hierarchy step reads: the yhier
	// layer, the larger of the two.
	cfg.normalize()
	_, yhier := HierarchyLayers(cfg.Size)
	an := reuse.NewStream(ctx, root, int(yhier.Words))
	psp := root.Child("profile")
	demo, err := profileDemonstrator(cfg, psp, an)
	psp.End()
	if err != nil {
		an.Profile()
		return nil, err
	}
	ep = ep.ScaleTo(demo.Config.Size)
	if !ep.NoCache {
		ep.memo = memo.New(memo.Assignments, memo.Schedule)
	}
	r := &Results{Demo: demo}

	msp := root.Child("step.macp")
	r.MACP = AnalyzeMACP(demo.Spec, demo.CycleBudget, ep)
	if msp != nil {
		msp.SetInt("unit_macp", int64(r.MACP.UnitMACP))
		msp.SetInt("weighted_macp", int64(r.MACP.WeightedMACP))
		msp.SetInt("cycle_budget", int64(r.MACP.CycleBudget))
	}
	msp.End()

	// Step 1: basic group structuring (Table 1). Decision: total power.
	// Structuring reads only the spec and the cycle budget; the image
	// array's reuse profile is first read by the hierarchy step.
	r.Structuring, err = ExploreStructuringContext(ctx, demo, ep)
	demo.ImageProfile = an.Profile()
	if err != nil {
		return nil, err
	}
	r.StructChoice = minPower(r.Structuring)

	// Step 2: memory hierarchy (Table 2).
	r.Hierarchy, r.Hierarchies, err = ExploreHierarchyContext(ctx, r.StructChoice.Spec, demo, ep)
	if err != nil {
		return nil, err
	}
	r.HierChoice = minPower(r.Hierarchy)
	for i, v := range r.Hierarchy {
		if v == r.HierChoice {
			r.HierPlan = r.Hierarchies[i]
		}
	}

	// Step 3: storage cycle budget (Table 3). Decision: spare as many
	// data-path cycles as possible at little memory-organization cost.
	r.Budgets, err = ExploreBudgetsContext(ctx, r.HierChoice.Spec, demo.CycleBudget, ep)
	if err != nil {
		return nil, err
	}
	r.BudgetChoice = ChooseBudget(r.Budgets, 0.05, 0.10)

	// Step 4: allocation sweep (Table 4). Decision: weighted area/power.
	counts := []int{4, 5, 8, 10, 14}
	r.Allocations, r.AllocCounts, err = ExploreAllocationsContext(
		ctx, r.BudgetChoice.Spec, r.BudgetChoice.Dist, counts, ep)
	if err != nil {
		return nil, err
	}
	fsp := root.Child("step.final")
	r.AllocChoice = weightedBest(r.Allocations, 0.5, 1)
	r.Final = r.AllocChoice
	if fsp != nil {
		fsp.SetStr("choice", r.Final.Label)
		fsp.SetFloat("total_power_mw", r.Final.Cost.TotalPower())
		fsp.SetFloat("onchip_area_mm2", r.Final.Cost.OnChipArea)
	}
	fsp.End()
	// Snapshot the run cache's hit rates and the worker pool's
	// spawn/inline counts into the telemetry session (memo.hits{space=...},
	// pool.spawns, ...), so traces and -stats report how much of the sweep
	// was answered from the cache and how the work was scheduled.
	ep.memo.Publish(ep.Obs)
	ep.Workers.Publish(ep.Obs)
	return r, nil
}

func minPower(vs []*Variant) *Variant {
	best := vs[0]
	for _, v := range vs[1:] {
		if v.Cost.TotalPower() < best.Cost.TotalPower() {
			best = v
		}
	}
	return best
}

// weightedBest returns the variant minimizing wArea·on-chip area +
// wPower·total power; ties break on label for determinism.
func weightedBest(vs []*Variant, wArea, wPower float64) *Variant {
	best := vs[0]
	bestV := wArea*best.Cost.OnChipArea + wPower*best.Cost.TotalPower()
	for _, v := range vs[1:] {
		score := wArea*v.Cost.OnChipArea + wPower*v.Cost.TotalPower()
		if score < bestV || (score == bestV && v.Label < best.Label) {
			best, bestV = v, score
		}
	}
	return best
}

// costLabel is the table label of a variant: proven-optimal organizations
// show plain, best-effort ones (deadline, cancellation, or node-budget
// exhaustion stopped the exact search) are marked.
func costLabel(v *Variant) string {
	if v.Asgn != nil && !v.Asgn.Optimal {
		return v.Label + " (best-effort)"
	}
	return v.Label
}

// Table1 renders the basic group structuring costs (paper Table 1).
func (r *Results) Table1() *report.Table {
	t := report.CostTable("Table 1: Basic group structuring for the BTPC application", "Version")
	for _, v := range r.Structuring {
		t.AddRow(report.CostRow(costLabel(v), v.Cost)...)
	}
	return t
}

// Table2 renders the memory hierarchy decision costs (paper Table 2).
func (r *Results) Table2() *report.Table {
	t := report.CostTable("Table 2: Memory hierarchy decision for the BTPC application", "Version")
	for _, v := range r.Hierarchy {
		t.AddRow(report.CostRow(costLabel(v), v.Cost)...)
	}
	return t
}

// Table3 renders the cycle budget exploration (paper Table 3).
func (r *Results) Table3() *report.Table {
	t := &report.Table{
		Title: "Table 3: Different cycle budgets for the BTPC application",
		Headers: []string{"Extra cycles for data-path", "on-chip area [mm2]",
			"on-chip power [mW]", "off-chip power [mW]"},
	}
	for _, p := range r.Budgets {
		pct := 100 * float64(p.Extra) / float64(r.Demo.CycleBudget)
		t.AddRow(
			fmt.Sprintf("%d (%.1f%%)", p.Extra, pct),
			fmt.Sprintf("%.1f", p.Cost.OnChipArea),
			fmt.Sprintf("%.1f", p.Cost.OnChipPower),
			fmt.Sprintf("%.1f", p.Cost.OffChipPower),
		)
	}
	return t
}

// Table4 renders the allocation sweep (paper Table 4).
func (r *Results) Table4() *report.Table {
	t := report.CostTable("Table 4: Different memory allocations for the BTPC application", "Version")
	for _, v := range r.Allocations {
		t.AddRow(report.CostRow(costLabel(v), v.Cost)...)
	}
	return t
}

// Figure1 renders the stepwise-refinement exploration tree with the
// decisions taken (paper Figure 1).
func (r *Results) Figure1() string {
	labels := func(vs []*Variant) []string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = v.Label
		}
		return out
	}
	budgetLabels := make([]string, len(r.Budgets))
	for i, b := range r.Budgets {
		budgetLabels[i] = fmt.Sprintf("extra %d", b.Extra)
	}
	root := &report.TreeNode{
		Stage:   "Pruned system specification",
		Options: []string{fmt.Sprintf("%s (%d basic groups, %d loops)", r.Demo.Spec.Name, len(r.Demo.Spec.Groups), len(r.Demo.Spec.Loops))},
		Chosen:  "",
		Children: []*report.TreeNode{{
			Stage:   "Loop transformations (MACP)",
			Options: []string{fmt.Sprintf("none required (weighted MACP %d <= budget %d)", r.MACP.WeightedMACP, r.MACP.CycleBudget)},
			Children: []*report.TreeNode{{
				Stage:   "Basic group structuring",
				Options: labels(r.Structuring),
				Chosen:  r.StructChoice.Label,
				Children: []*report.TreeNode{{
					Stage:   "Memory hierarchy",
					Options: labels(r.Hierarchy),
					Chosen:  r.HierChoice.Label,
					Children: []*report.TreeNode{{
						Stage:   "Storage cycle budget distribution",
						Options: budgetLabels,
						Chosen:  fmt.Sprintf("extra %d", r.BudgetChoice.Extra),
						Children: []*report.TreeNode{{
							Stage:   "Memory allocation & assignment",
							Options: labels(r.Allocations),
							Chosen:  r.AllocChoice.Label,
						}},
					}},
				}},
			}},
		}},
	}
	return report.RenderTree(root)
}

// Figure2 renders the structuring schematic (paper Figure 2).
func (r *Results) Figure2() string { return report.StructuringDiagram() }

// Figure3 renders the image-array hierarchy possibilities (paper Figure 3
// shows the full two-layer candidate structure), annotated with the port
// counts the two-layer variant's assignment gave each layer.
func (r *Results) Figure3() string {
	full := r.Hierarchies[len(r.Hierarchies)-1] // the 2-layer candidate
	v := r.Hierarchy[len(r.Hierarchy)-1]
	return report.HierarchyDiagram(full, PortsOf(v))
}

// PortsOf exposes the per-group port map of a variant's assignment.
func PortsOf(v *Variant) map[string]int {
	ports := make(map[string]int)
	for _, bind := range v.Asgn.OnChip {
		for _, g := range bind.Groups {
			ports[g] = bind.Mem.Ports
		}
	}
	for _, bind := range v.Asgn.OffChip {
		for _, g := range bind.Groups {
			ports[g] = bind.Mem.Ports
		}
	}
	return ports
}
