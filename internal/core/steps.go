package core

import (
	"context"
	"fmt"

	"repro/internal/assign"
	"repro/internal/bgstruct"
	"repro/internal/dfg"
	"repro/internal/memlib"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/reuse"
	"repro/internal/sbd"
	"repro/internal/spec"
)

// EvalParams bundles the technology and tool parameters shared by all
// evaluation calls of one exploration session.
type EvalParams struct {
	Tech        *memlib.Tech
	SBD         sbd.Params
	Assign      assign.Params
	OnChipCount int // allocation used for steps 1-3; Table 4 sweeps it

	// Obs is the telemetry session; nil (the default) disables all
	// instrumentation at near-zero cost. Span is the current parent span the
	// step functions hang their spans off; EvalParams is passed by value, so
	// each nesting level carries its own parent without races.
	Obs  *obs.Observer
	Span *obs.Span

	// Progress is the live-introspection side channel of this evaluation:
	// the stages publish their position into it (current stage, search nodes,
	// incumbent, bound) and the serving layer reads it concurrently. Strictly
	// write-only for the pipeline, so results are identical with or without
	// it. Nil disables it.
	Progress *obs.Progress

	// Memo is the session's cross-variant evaluation cache: loop schedules
	// and conflict-pattern derivations are memoized by canonical
	// fingerprints, so sweeps that re-evaluate nearly identical subproblems
	// (structuring and hierarchy variants that leave most loops untouched,
	// budget points that clamp a loop to its minimum) pay for each distinct
	// subproblem once. DefaultEvalParams attaches a fresh cache; set to nil
	// to disable caching (the -cache=off path). Results are byte-identical
	// either way — the cache only removes redundant work.
	Memo *memo.Cache

	// Workers is the session-wide bounded worker pool shared by every
	// parallel stage: the hierarchy/budget/allocation sweeps fan their
	// candidates out on it, and each candidate's assignment search runs
	// sequentially on the worker that evaluates it. One pool bounds the
	// whole session's concurrency, and its inline-run fallback keeps it
	// deadlock-free however callers share or nest it. DefaultEvalParams
	// attaches a GOMAXPROCS-wide pool; nil (or a 1-wide pool) runs
	// everything sequentially. Results are byte-identical at any width —
	// the sweeps collect by index.
	Workers *pool.Pool
}

// startSpan opens a telemetry span for one pipeline stage: a child of the
// current parent when one is set, else a root span on the observer. The
// returned EvalParams copy carries the new span as parent, so nested
// Evaluate calls nest their spans underneath. Nil-safe throughout.
func (ep EvalParams) startSpan(name string) (*obs.Span, EvalParams) {
	var sp *obs.Span
	if ep.Span != nil {
		sp = ep.Span.Child(name)
	} else {
		sp = ep.Obs.Start(name)
	}
	ep.Span = sp
	// Best-effort stage reporting: parallel sweeps publish concurrently, so
	// introspection sees the most recent stage entered, which is what a
	// "where is this request now" endpoint wants.
	ep.Progress.SetStage(name)
	return sp, ep
}

// DefaultEvalParams returns the calibrated defaults used throughout the
// reproduction (thresholds kept consistent between the SCBD and assignment
// steps).
func DefaultEvalParams() EvalParams {
	tech := memlib.Default()
	return EvalParams{
		Tech:        tech,
		SBD:         sbd.Params{OnChipMaxWords: tech.OnChipMaxWords},
		Assign:      assign.Params{OnChipMaxWords: tech.OnChipMaxWords},
		OnChipCount: 4,
		Memo:        memo.New(),
		Workers:     pool.New(0),
	}
}

// ScaleTo adapts the on/off-chip size threshold to the profiled image size
// so that scaled-down demonstrators keep the paper's memory structure: the
// three image-sized arrays always live off-chip, the copy layers and tables
// on-chip. At the paper's 1024×1024 size this is the 64Ki generator limit.
func (ep EvalParams) ScaleTo(size int) EvalParams {
	th := int64(size) * int64(size) / 8
	if th > 64*1024 {
		th = 64 * 1024
	}
	if th < 1024 {
		th = 1024
	}
	tech := *ep.Tech
	tech.OnChipMaxWords = th
	// The real-time constraint is 1 Mpixel/s, so the frame period scales
	// with the pixel count and access rates stay size-independent.
	tech.FramePeriod = float64(size) * float64(size) / 1e6
	ep.Tech = &tech
	ep.SBD.OnChipMaxWords = th
	ep.Assign.OnChipMaxWords = th
	return ep
}

// Variant is one fully evaluated design alternative: the specification
// after the decision under study, its budget distribution, and the memory
// organization the physical-memory-management stage derived — with the
// accurate cost feedback the methodology runs on.
type Variant struct {
	Label string
	Spec  *spec.Spec
	Dist  *sbd.Distribution
	Asgn  *assign.Assignment
	Cost  assign.Cost
}

// Evaluate runs the physical memory management stage on a specification:
// storage cycle budget distribution followed by allocation and assignment.
// If the requested allocation is infeasible (the conflict structure demands
// more memories), nearby larger allocations are tried.
func Evaluate(s *spec.Spec, budget uint64, label string, ep EvalParams) (*Variant, error) {
	return EvaluateContext(context.Background(), s, budget, label, ep)
}

// EvaluateContext is Evaluate with deadline and cancellation support. The
// evaluation is *anytime*: under an expired context both stages degrade
// (sbd commits minimum-budget schedules, assign returns its greedy
// incumbent with Optimal=false) rather than erroring, so a feasible
// specification always yields a valid — if conservative — cost estimate.
func EvaluateContext(ctx context.Context, s *spec.Spec, budget uint64, label string, ep EvalParams) (*Variant, error) {
	sp, ep := ep.startSpan("evaluate")
	defer sp.End()
	if sp != nil {
		sp.SetStr("label", label)
		sp.SetInt("budget", int64(budget))
		sp.Observer().Counter("core.evaluations").Add(1)
	}
	sbdP := ep.SBD
	sbdP.Obs = ep.Span
	sbdP.Memo = ep.Memo
	sbdP.Progress = ep.Progress
	dist, err := sbd.DistributeContext(ctx, s, budget, sbdP)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", label, err)
	}
	pats := sbd.PrunePatternsCached(ep.Memo, dist.Patterns)
	if sp != nil {
		sp.SetInt("patterns", int64(len(dist.Patterns)))
		sp.SetInt("patterns_pruned", int64(len(dist.Patterns)-len(pats)))
	}
	asgnP := ep.Assign
	asgnP.Obs = ep.Span
	asgnP.Progress = ep.Progress
	var asgn *assign.Assignment
	retries := 0
	for count := ep.OnChipCount; count <= ep.OnChipCount+6; count++ {
		asgn, err = assign.AssignContext(ctx, s, pats, ep.Tech, count, asgnP)
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			// A dead context cannot be helped by a larger allocation: the
			// search degraded to its incumbent and the failure means the
			// problem itself is infeasible — stop retrying.
			break
		}
		retries++
	}
	if retries > 0 && sp != nil {
		sp.SetInt("allocation_retries", int64(retries))
		sp.Observer().Counter("core.allocation_retries").Add(int64(retries))
	}
	if err != nil {
		return nil, fmt.Errorf("core: %s: allocation failed: %w", label, err)
	}
	return &Variant{Label: label, Spec: s, Dist: dist, Asgn: asgn, Cost: asgn.Cost}, nil
}

// ExploreStructuring evaluates the basic group structuring alternatives of
// §4.3 (Table 1): untouched, ridge compacted, and ridge+pyr merged.
func ExploreStructuring(d *Demonstrator, ep EvalParams) ([]*Variant, error) {
	return ExploreStructuringContext(context.Background(), d, ep)
}

// ExploreStructuringContext is ExploreStructuring with cancellation support:
// the untouched variant is always evaluated (it is the baseline every other
// step can fall back to); under an expired context the structured
// alternatives are skipped.
func ExploreStructuringContext(ctx context.Context, d *Demonstrator, ep EvalParams) ([]*Variant, error) {
	sp, ep := ep.startSpan("step.structuring")
	defer sp.End()
	out := make([]*Variant, 0, 3)
	v, err := EvaluateContext(ctx, d.Spec, d.CycleBudget, "No structuring", ep)
	if err != nil {
		return nil, err
	}
	out = append(out, v)

	if ctx.Err() == nil {
		compacted, err := bgstruct.Compact(d.Spec, "ridge", 3)
		if err != nil {
			return nil, err
		}
		v, err = EvaluateContext(ctx, compacted, d.CycleBudget, "ridge compacted", ep)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}

	if ctx.Err() == nil {
		merged, err := bgstruct.Merge(d.Spec, "ridge", "pyr", "pyrridge")
		if err != nil {
			return nil, err
		}
		v, err = EvaluateContext(ctx, merged, d.CycleBudget, "ridge and pyr merged", ep)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	sp.SetInt("variants", int64(len(out)))
	return out, nil
}

// HierarchyLayers returns the paper's candidate copy layers for the image
// array, scaled to the profiled image: ylocal is the 12-register window
// buffer, yhier the ~5K line buffer (Figure 3).
func HierarchyLayers(size int) (ylocal, yhier reuse.Layer) {
	words := int64(5 * size)
	if words < 64 {
		words = 64
	}
	return reuse.Layer{Name: "ylocal", Words: 12}, reuse.Layer{Name: "yhier", Words: words}
}

// ExploreHierarchy evaluates the four memory-hierarchy alternatives of
// §4.4 (Table 2) on the given (already structured) specification.
func ExploreHierarchy(s *spec.Spec, d *Demonstrator, ep EvalParams) ([]*Variant, []*reuse.Hierarchy, error) {
	return ExploreHierarchyContext(context.Background(), s, d, ep)
}

// ExploreHierarchyContext is ExploreHierarchy with cancellation support:
// candidates not launched before the context expired are dropped from the
// result (the no-hierarchy baseline is always evaluated).
func ExploreHierarchyContext(ctx context.Context, s *spec.Spec, d *Demonstrator, ep EvalParams) ([]*Variant, []*reuse.Hierarchy, error) {
	sp, ep := ep.startSpan("step.hierarchy")
	defer sp.End()
	ylocal, yhier := HierarchyLayers(d.Config.Size)
	type option struct {
		label  string
		layers []reuse.Layer
	}
	options := []option{
		{"No hierarchy", nil},
		{"Only layer 1 (yhier)", []reuse.Layer{yhier}},
		{"Only layer 0 (ylocal)", []reuse.Layer{ylocal}},
		{"2 layers (both)", []reuse.Layer{ylocal, yhier}},
	}
	variants := make([]*Variant, len(options))
	hierarchies := make([]*reuse.Hierarchy, len(options))
	errs := make([]error, len(options))
	sp.SetInt("candidates", int64(len(options)))
	ep.Workers.ForEach(ctx, len(options), func(i int) {
		h, err := reuse.PlanObserved("image", options[i].layers, d.ImageProfile, ep.Span)
		if err != nil {
			errs[i] = err
			return
		}
		applied, err := reuse.Apply(s, h, 8)
		if err != nil {
			errs[i] = err
			return
		}
		v, err := EvaluateContext(ctx, applied, d.CycleBudget, options[i].label, ep)
		if err != nil {
			errs[i] = err
			return
		}
		variants[i] = v
		hierarchies[i] = h
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	// Compact the candidates the pool never launched (expired context):
	// the launched ones all evaluated (or errored above), so nil means
	// skipped, and variants/hierarchies stay index-aligned.
	outV := variants[:0]
	outH := hierarchies[:0]
	for i, v := range variants {
		if v == nil {
			continue
		}
		outV = append(outV, v)
		outH = append(outH, hierarchies[i])
	}
	return outV, outH, nil
}

// BudgetPoint is one row of the cycle-budget exploration (Table 3).
type BudgetPoint struct {
	*Variant
	Budget uint64 // the offered storage cycle budget
	Extra  uint64 // cycles left for data-path scheduling (vs. the full budget)
}

// ExploreBudgets sweeps the storage cycle budget downward from the
// real-time maximum (§4.5, Table 3). The sweep stops when the budget drops
// below the weighted MACP.
func ExploreBudgets(s *spec.Spec, fullBudget uint64, ep EvalParams) ([]*BudgetPoint, error) {
	return ExploreBudgetsContext(context.Background(), s, fullBudget, ep)
}

// ExploreBudgetsContext is ExploreBudgets with cancellation support: budget
// points not launched before the context expired are dropped (the full
// budget — the sweep's reference row — is always evaluated).
func ExploreBudgetsContext(ctx context.Context, s *spec.Spec, fullBudget uint64, ep EvalParams) ([]*BudgetPoint, error) {
	fracs := []float64{1.0, 0.95, 0.90, 0.85, 0.82, 0.80, 0.78, 0.75, 0.72, 0.70, 0.68}
	return budgetSweep(ctx, s, fullBudget, fracs, ep)
}

// ExploreBudgetsPipelined extends the Table 3 sweep below the dependence
// critical path by enabling software pipelining: iterations overlap, so
// ever-tighter initiation intervals remain schedulable — at the price of
// off-chip access overlap, which is where the paper's off-chip power jump
// at the tightest budget comes from.
func ExploreBudgetsPipelined(s *spec.Spec, fullBudget uint64, ep EvalParams) ([]*BudgetPoint, error) {
	return ExploreBudgetsPipelinedContext(context.Background(), s, fullBudget, ep)
}

// ExploreBudgetsPipelinedContext is ExploreBudgetsPipelined with
// cancellation support (see ExploreBudgetsContext).
func ExploreBudgetsPipelinedContext(ctx context.Context, s *spec.Spec, fullBudget uint64, ep EvalParams) ([]*BudgetPoint, error) {
	ep.SBD.Pipelined = true
	fracs := []float64{0.68, 0.60, 0.52, 0.45, 0.40, 0.34, 0.30, 0.26, 0.22}
	return budgetSweep(ctx, s, fullBudget, fracs, ep)
}

func budgetSweep(ctx context.Context, s *spec.Spec, fullBudget uint64, fracs []float64, ep EvalParams) ([]*BudgetPoint, error) {
	sp, ep := ep.startSpan("step.budget")
	defer sp.End()
	if sp != nil {
		sp.SetInt("points", int64(len(fracs)))
		pipelined := int64(0)
		if ep.SBD.Pipelined {
			pipelined = 1
		}
		sp.SetInt("pipelined", pipelined)
	}
	variants := make([]*Variant, len(fracs))
	ep.Workers.ForEach(ctx, len(fracs), func(i int) {
		budget := uint64(float64(fullBudget) * fracs[i])
		v, err := EvaluateContext(ctx, s, budget, fmt.Sprintf("budget %.0f%%", 100*fracs[i]), ep)
		if err != nil {
			return // below MACP or infeasible allocation: not a row
		}
		variants[i] = v
	})
	out := make([]*BudgetPoint, 0, len(fracs))
	seenUsed := make(map[uint64]bool, len(fracs))
	for i, v := range variants {
		if v == nil || seenUsed[v.Dist.Used] {
			continue // infeasible, or same committed schedule: identical row
		}
		seenUsed[v.Dist.Used] = true
		out = append(out, &BudgetPoint{
			Variant: v,
			Budget:  uint64(float64(fullBudget) * fracs[i]),
			Extra:   fullBudget - v.Dist.Used,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no feasible budget in the sweep")
	}
	sp.SetInt("rows", int64(len(out)))
	return out, nil
}

// ChooseBudget applies the paper's designer rule: spare as many cycles for
// the data-path as possible "with little or no increase in the cost of the
// memory organization". Tolerances are relative to the most relaxed row.
func ChooseBudget(points []*BudgetPoint, powerTol, areaTol float64) *BudgetPoint {
	ref := points[0]
	best := ref
	for _, p := range points[1:] {
		if p.Cost.TotalPower() <= ref.Cost.TotalPower()*(1+powerTol) &&
			p.Cost.OnChipArea <= ref.Cost.OnChipArea*(1+areaTol) &&
			p.Extra > best.Extra {
			best = p
		}
	}
	return best
}

// ExploreAllocations sweeps the number of allocated on-chip memories
// (§4.6, Table 4) at a fixed budget distribution.
func ExploreAllocations(s *spec.Spec, dist *sbd.Distribution, counts []int, ep EvalParams) ([]*Variant, []int, error) {
	return ExploreAllocationsContext(context.Background(), s, dist, counts, ep)
}

// ExploreAllocationsContext is ExploreAllocations with cancellation support:
// counts not launched before the context expired are dropped (the first
// count is always evaluated).
func ExploreAllocationsContext(ctx context.Context, s *spec.Spec, dist *sbd.Distribution, counts []int, ep EvalParams) ([]*Variant, []int, error) {
	sp, ep := ep.startSpan("step.allocation")
	defer sp.End()
	sp.SetInt("counts", int64(len(counts)))
	// The budget step already pruned this distribution's patterns when it
	// evaluated the chosen point; the session cache turns this duplicate
	// derivation into a lookup.
	pats := sbd.PrunePatternsCached(ep.Memo, dist.Patterns)
	asgns := make([]*assign.Assignment, len(counts))
	ep.Workers.ForEach(ctx, len(counts), func(i int) {
		ap := ep.Assign
		ap.Obs = ep.Span
		if a, err := assign.AssignContext(ctx, s, pats, ep.Tech, counts[i], ap); err == nil {
			asgns[i] = a
		}
	})
	out := make([]*Variant, 0, len(counts))
	okCounts := make([]int, 0, len(counts))
	for i, a := range asgns {
		if a == nil {
			continue
		}
		out = append(out, &Variant{
			Label: fmt.Sprintf("%d on-chip memories", counts[i]),
			Spec:  s,
			Dist:  dist,
			Asgn:  a,
			Cost:  a.Cost,
		})
		okCounts = append(okCounts, counts[i])
	}
	if len(out) == 0 {
		return nil, nil, fmt.Errorf("core: no feasible allocation in sweep %v", counts)
	}
	return out, okCounts, nil
}

// MACPReport summarizes the §4.2 critical-path analysis: the dependence-
// bound minimum cycles (unit accesses), the duration-weighted minimum, and
// the real-time budget they must fit under.
type MACPReport struct {
	UnitMACP     uint64 // each access one cycle
	WeightedMACP uint64 // off-chip accesses take several cycles
	CycleBudget  uint64
	Feasible     bool
}

// AnalyzeMACP computes the critical-path report for a specification.
func AnalyzeMACP(s *spec.Spec, budget uint64, ep EvalParams) MACPReport {
	groups := make(map[string]spec.BasicGroup, len(s.Groups))
	for _, g := range s.Groups {
		groups[g.Name] = g
	}
	var weighted uint64
	for i := range s.Loops {
		weighted += uint64(sbd.WeightedCP(&s.Loops[i], groups, ep.SBD)) * s.Loops[i].Iterations
	}
	return MACPReport{
		UnitMACP:     dfg.MACP(s),
		WeightedMACP: weighted,
		CycleBudget:  budget,
		Feasible:     weighted <= budget,
	}
}
