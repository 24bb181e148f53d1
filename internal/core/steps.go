package core

import (
	"context"
	"fmt"
	"strconv"

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
// evaluation calls of one exploration session. It is the only parameter
// set callers fill: sbdParams and assignParams derive the engines'
// parameters from it, so each knob has one home. Tech.OnChipMaxWords is
// the on/off-chip threshold both engines read.
type EvalParams struct {
	Tech        *memlib.Tech
	OnChipCount int  // allocation used for steps 1-3; Table 4 sweeps it
	InPlace     bool // the in-place mapping extension in the assignment

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

	// NoCache turns off the run cache: RunAllContext then searches and
	// balances every variant afresh (the -cache=off path). Otherwise each
	// methodology run owns one cache of its loop schedules and assignment
	// answers, so sweeps that re-evaluate nearly identical subproblems
	// (structuring and hierarchy variants that leave most loops untouched,
	// budget points that leave the same conflict patterns) pay for each
	// distinct subproblem once, and the cache goes when the run returns.
	// An evaluation outside a run has no cache. Results are byte-identical
	// either way: the cache only removes redundant work.
	NoCache bool

	// Workers is the session-wide bounded worker pool shared by every
	// parallel stage: the structuring, hierarchy, budget and allocation
	// sweeps fan their candidates out on it, the caller and its helpers
	// taking the next candidate as they come free, and each candidate's
	// assignment search runs sequentially on the worker that evaluates it.
	// One pool bounds the whole session's concurrency, and since a fan-out
	// never waits for a helper slot it stays deadlock-free however callers
	// share or nest it. DefaultEvalParams attaches a GOMAXPROCS-wide pool;
	// nil (or a 1-wide pool) runs everything sequentially. Results are
	// byte-identical at any width — the sweeps collect by index.
	Workers *pool.Pool

	// pipelined enables software pipelining in the budget step (the
	// Table 3 extension sweep); structuralWeight is its sbd.Params
	// namesake (-1: the structural-cost ablation); memo is the run cache
	// RunAllContext creates (nil: no cache). Only this package sets them.
	pipelined        bool
	structuralWeight float64
	memo             *memo.Cache
}

// sbdParams derives the storage-cycle-budget step's parameters: the
// threshold from Tech, telemetry under the current span.
func (ep EvalParams) sbdParams() sbd.Params {
	return sbd.Params{
		OnChipMaxWords:   ep.Tech.OnChipMaxWords,
		StructuralWeight: ep.structuralWeight,
		Obs:              ep.Span,
		Progress:         ep.Progress,
		Memo:             ep.memo,
		Pipelined:        ep.pipelined,
	}
}

// assignParams derives the assignment step's parameters; the assignment
// reads the threshold from the Tech it receives.
func (ep EvalParams) assignParams() assign.Params {
	return assign.Params{InPlace: ep.InPlace, Obs: ep.Span, Progress: ep.Progress}
}

// startSpan opens a telemetry span for one pipeline stage: a child of the
// current parent when one is set, else a root span on the observer. The
// returned EvalParams copy carries the new span as parent, so nested
// EvaluateContext calls nest their spans underneath. Nil-safe throughout.
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
// reproduction. It allocates no cache: RunAllContext creates each run's.
func DefaultEvalParams() EvalParams {
	return EvalParams{
		Tech:        memlib.Default(),
		OnChipCount: 4,
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
	return ep
}

// SpecKnobs are the spec-mode tool knobs: cmd/specexplore's flags and the
// server's request "params". Callers start from DefaultSpecKnobs and
// Check them before applying.
type SpecKnobs struct {
	OnChip       int     // on-chip memories to allocate
	Threshold    int64   // words above which a group lives off-chip; 0 selects 64Ki
	Frame        float64 // frame period [s], for access rates
	InPlace      bool    // the in-place mapping extension
	Interconnect bool    // the bus interconnect model
}

// DefaultSpecKnobs returns the spec-mode defaults: four on-chip memories,
// the 64Ki-word threshold and a one-second frame.
func DefaultSpecKnobs() SpecKnobs {
	return SpecKnobs{OnChip: 4, Threshold: 64 * 1024, Frame: 1.0}
}

// KnobRange names a spec-mode knob outside its range. Each caller words it
// in its own terms (a flag, a request field) around Knob, Value and Rule.
type KnobRange struct {
	Knob  string // onchip, threshold or frame
	Value string // the value as given
	Rule  string // the range, as "must be >= 1"
}

// Check returns the first knob outside its range, or nil: a zero-memory
// allocation, a negative threshold classifying everything off-chip, or a
// non-positive frame period breaking every access rate.
func (k SpecKnobs) Check() *KnobRange {
	switch {
	case k.OnChip < 1:
		return &KnobRange{"onchip", strconv.Itoa(k.OnChip), "must be >= 1"}
	case k.Threshold < 0:
		return &KnobRange{"threshold", strconv.FormatInt(k.Threshold, 10), "must be >= 0"}
	case k.Frame <= 0:
		return &KnobRange{"frame", strconv.FormatFloat(k.Frame, 'g', -1, 64), "must be > 0"}
	}
	return nil
}

// WithSpecKnobs returns ep with the spec-mode knobs applied to its
// technology copy and allocation.
func (ep EvalParams) WithSpecKnobs(k SpecKnobs) EvalParams {
	tech := *ep.Tech
	tech.OnChipMaxWords = k.Threshold
	tech.FramePeriod = k.Frame
	if k.Interconnect {
		tech.Bus = tech.WithInterconnect().Bus
	}
	ep.Tech = &tech
	ep.OnChipCount = k.OnChip
	ep.InPlace = k.InPlace
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

// EvaluateContext runs the physical memory management stage on a
// specification: storage cycle budget distribution followed by allocation
// and assignment. If the requested allocation is infeasible (the conflict
// structure demands more memories), nearby larger allocations are tried.
// The evaluation is *anytime*: under an expired context both stages degrade
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
	dist, err := sbd.DistributeContext(ctx, s, budget, ep.sbdParams())
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", label, err)
	}
	pats := sbd.PrunePatterns(dist.Patterns)
	if sp != nil {
		sp.SetInt("patterns", int64(len(dist.Patterns)))
		sp.SetInt("patterns_pruned", int64(len(dist.Patterns)-len(pats)))
	}
	asgnP := ep.assignParams()
	var asgn *assign.Assignment
	retries := 0
	for count := ep.OnChipCount; count <= ep.OnChipCount+6; count++ {
		asgn, err = ep.assign(ctx, s, pats, count, asgnP)
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

// ExploreStructuringContext evaluates the basic group structuring
// alternatives of §4.3 (Table 1): untouched, ridge compacted, and ridge+pyr
// merged, one per pool item; each item builds its own variant. The
// untouched variant is item 0, so it is always evaluated (it is the
// baseline every other step can fall back to); alternatives not launched
// before the context expired are dropped.
func ExploreStructuringContext(ctx context.Context, d *Demonstrator, ep EvalParams) ([]*Variant, error) {
	sp, ep := ep.startSpan("step.structuring")
	defer sp.End()
	options := []struct {
		label string
		build func() (*spec.Spec, error)
	}{
		{"No structuring", func() (*spec.Spec, error) { return d.Spec, nil }},
		{"ridge compacted", func() (*spec.Spec, error) { return bgstruct.Compact(d.Spec, "ridge", 3) }},
		{"ridge and pyr merged", func() (*spec.Spec, error) { return bgstruct.Merge(d.Spec, "ridge", "pyr", "pyrridge") }},
	}
	variants := make([]*Variant, len(options))
	errs := make([]error, len(options))
	ep.Workers.ForEach(ctx, len(options), func(i int) {
		s, err := options[i].build()
		if err == nil {
			variants[i], err = EvaluateContext(ctx, s, d.CycleBudget, options[i].label, ep)
		}
		errs[i] = err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := variants[:0]
	for _, v := range variants {
		if v != nil {
			out = append(out, v)
		}
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

// ExploreHierarchyContext evaluates the four memory-hierarchy alternatives
// of §4.4 (Table 2) on the given (already structured) specification.
// Candidates not launched before the context expired are dropped from the
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
		h, err := reuse.Plan("image", options[i].layers, d.ImageProfile, ep.Span)
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

// ExploreBudgetsContext sweeps the storage cycle budget downward from the
// real-time maximum (§4.5, Table 3). Budgets below the weighted MACP yield
// no row. Points not launched before the context expired are dropped (the
// full budget — the sweep's reference row — is always evaluated).
func ExploreBudgetsContext(ctx context.Context, s *spec.Spec, fullBudget uint64, ep EvalParams) ([]*BudgetPoint, error) {
	fracs := []float64{1.0, 0.95, 0.90, 0.85, 0.82, 0.80, 0.78, 0.75, 0.72, 0.70, 0.68}
	return budgetSweep(ctx, s, fullBudget, fracs, ep)
}

// ExploreBudgetsPipelinedContext extends the Table 3 sweep below the
// dependence critical path by enabling software pipelining: iterations
// overlap, so ever-tighter initiation intervals remain schedulable — at the
// price of off-chip access overlap, which is where the paper's off-chip
// power jump at the tightest budget comes from. Cancellation behaves as in
// ExploreBudgetsContext.
func ExploreBudgetsPipelinedContext(ctx context.Context, s *spec.Spec, fullBudget uint64, ep EvalParams) ([]*BudgetPoint, error) {
	ep.pipelined = true
	fracs := []float64{0.68, 0.60, 0.52, 0.45, 0.40, 0.34, 0.30, 0.26, 0.22}
	return budgetSweep(ctx, s, fullBudget, fracs, ep)
}

func budgetSweep(ctx context.Context, s *spec.Spec, fullBudget uint64, fracs []float64, ep EvalParams) ([]*BudgetPoint, error) {
	sp, ep := ep.startSpan("step.budget")
	defer sp.End()
	if sp != nil {
		sp.SetInt("points", int64(len(fracs)))
		pipelined := int64(0)
		if ep.pipelined {
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

// ExploreAllocationsContext sweeps the number of allocated on-chip memories
// (§4.6, Table 4) at a fixed budget distribution, one count per pool item.
// Counts not launched before the context expired are dropped (the first
// count is always evaluated).
func ExploreAllocationsContext(ctx context.Context, s *spec.Spec, dist *sbd.Distribution, counts []int, ep EvalParams) ([]*Variant, []int, error) {
	sp, ep := ep.startSpan("step.allocation")
	defer sp.End()
	sp.SetInt("counts", int64(len(counts)))
	pats := sbd.PrunePatterns(dist.Patterns)
	asgns := make([]*assign.Assignment, len(counts))
	ap := ep.assignParams()
	ep.Workers.ForEach(ctx, len(counts), func(i int) {
		if a, err := ep.assign(ctx, s, pats, counts[i], ap); err == nil {
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
	p := ep.sbdParams()
	var weighted uint64
	for i := range s.Loops {
		weighted += uint64(sbd.WeightedCP(&s.Loops[i], groups, p)) * s.Loops[i].Iterations
	}
	return MACPReport{
		UnitMACP:     dfg.MACP(s),
		WeightedMACP: weighted,
		CycleBudget:  budget,
		Feasible:     weighted <= budget,
	}
}
