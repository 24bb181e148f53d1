package sbd

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/spec"
)

// offWords is comfortably above the default on-chip limit.
const offWords = 1024 * 1024

// fanInSpec models the BTPC hot body shape: nReads independent off-chip
// reads feeding a chain of tail on-chip accesses.
func fanInSpec(t *testing.T, nReads, tailLen int, iters uint64) *spec.Spec {
	t.Helper()
	b := spec.NewBuilder("fanin")
	b.Group("big", offWords, 8)
	b.Group("small", 256, 8)
	b.Loop("hot", iters)
	reads := make([]int, nReads)
	for i := range reads {
		reads[i] = b.Read("big", 1)
	}
	prev := b.Read("small", 1, reads...)
	for i := 1; i < tailLen; i++ {
		prev = b.Read("small", 1, prev)
	}
	return b.MustBuild()
}

// randomSpec builds a seeded random single-loop spec: 2–7 groups, about a
// third of them off-chip (2-cycle accesses), 4–14 accesses with random
// earlier-access dependences, and up to three branch tags mixed with
// unconditional code. The same seed always yields the same spec.
func randomSpec(seed int64) *spec.Spec {
	return genSpec(fmt.Sprintf("rand%d", seed), seed, 2, 6, 4, 11)
}

// wideSpec is randomSpec with 65–80 groups and 30–59 accesses: more groups
// than a mask has bits, so some groups share one.
func wideSpec(seed int64) *spec.Spec {
	return genSpec(fmt.Sprintf("wide%d", seed), seed, 65, 16, 30, 30)
}

// genSpec draws minGroups + [0, groupSpan) groups and minAcc + [0, accSpan)
// accesses from the seed.
func genSpec(name string, seed int64, minGroups, groupSpan, minAcc, accSpan int) *spec.Spec {
	rng := rand.New(rand.NewSource(seed))
	b := spec.NewBuilder(name)
	ng := minGroups + rng.Intn(groupSpan)
	for g := 0; g < ng; g++ {
		words := int64(16) << rng.Intn(8)
		if rng.Intn(3) == 0 {
			words = offWords
		}
		b.Group(fmt.Sprintf("g%d", g), words, 8<<rng.Intn(2))
	}
	b.Loop("l", 1+uint64(rng.Intn(1000)))
	n := minAcc + rng.Intn(accSpan)
	nbr := rng.Intn(4)
	for i := 0; i < n; i++ {
		tag := ""
		if nbr > 0 && rng.Intn(2) == 0 {
			tag = fmt.Sprintf("br%d", rng.Intn(nbr))
		}
		b.Branch(tag)
		var deps []int
		for j := 0; j < i && len(deps) < 3; j++ {
			if rng.Intn(4) == 0 {
				deps = append(deps, j)
			}
		}
		grp := fmt.Sprintf("g%d", rng.Intn(ng))
		if rng.Intn(3) == 0 {
			b.Write(grp, 1, deps...)
		} else {
			b.Read(grp, 1, deps...)
		}
	}
	return b.MustBuild()
}

func groupsMap(s *spec.Spec) map[string]spec.BasicGroup {
	m := make(map[string]spec.BasicGroup)
	for _, g := range s.Groups {
		m[g.Name] = g
	}
	return m
}

func TestWeightedCPDurations(t *testing.T) {
	s := fanInSpec(t, 4, 5, 1)
	// Off-chip read (2 cycles) then 5-cycle on-chip chain.
	if cp := WeightedCP(&s.Loops[0], groupsMap(s), Params{}); cp != 7 {
		t.Fatalf("weighted CP = %d, want 7", cp)
	}
}

func TestBalanceRespectsDepsAndBudget(t *testing.T) {
	s := fanInSpec(t, 5, 8, 1)
	l := &s.Loops[0]
	g := groupsMap(s)
	p := Params{}
	p.normalize()
	for _, budget := range []int{WeightedCP(l, g, p), 14, 18, 25} {
		sc, err := balanceLoop(context.Background(), l, g, budget, p)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		for _, a := range l.Accesses {
			st := sc.Start[a.ID]
			d := p.Duration(g[a.Group])
			if st < 0 || st+d > budget {
				t.Fatalf("budget %d: access %d at %d dur %d outside budget", budget, a.ID, st, d)
			}
			for _, dep := range a.Deps {
				dd := p.Duration(g[l.Accesses[dep].Group])
				if sc.Start[dep]+dd > st {
					t.Fatalf("budget %d: access %d (start %d) begins before dep %d finishes (%d)",
						budget, a.ID, st, dep, sc.Start[dep]+dd)
				}
			}
		}
	}
}

func TestBalanceBudgetBelowCPFails(t *testing.T) {
	s := fanInSpec(t, 4, 5, 1)
	l := &s.Loops[0]
	g := groupsMap(s)
	if _, err := balanceLoop(context.Background(), l, g, 6, Params{}); err == nil {
		t.Fatal("budget below weighted CP accepted")
	}
}

func TestTightBudgetForcesOffChipOverlap(t *testing.T) {
	// 5 independent 2-cycle off-chip reads must finish before a 10-cycle
	// tail. At the critical-path budget (12) the reads overlap each other;
	// with enough slack they serialize and the big array needs one port.
	s := fanInSpec(t, 5, 10, 1)
	l := &s.Loops[0]
	g := groupsMap(s)
	p := Params{}
	p.normalize()

	tight, err := balanceLoop(context.Background(), l, g, 12, p)
	if err != nil {
		t.Fatal(err)
	}
	tightPorts := RequiredPorts(patternsOfSpec(s, []*LoopSchedule{tight}, p))
	if tightPorts["big"] < 2 {
		t.Fatalf("tight budget: big needs %d ports, want >= 2", tightPorts["big"])
	}

	loose, err := balanceLoop(context.Background(), l, g, 22, p)
	if err != nil {
		t.Fatal(err)
	}
	loosePorts := RequiredPorts(patternsOfSpec(s, []*LoopSchedule{loose}, p))
	if loosePorts["big"] != 1 {
		t.Fatalf("loose budget: big needs %d ports, want 1", loosePorts["big"])
	}
	if loose.Cost >= tight.Cost {
		t.Fatalf("loose cost %.1f not below tight cost %.1f", loose.Cost, tight.Cost)
	}
}

func TestCostWeightedByIterations(t *testing.T) {
	s1 := fanInSpec(t, 5, 10, 1)
	s2 := fanInSpec(t, 5, 10, 1000)
	g := groupsMap(s1)
	p := Params{}
	a, err := balanceLoop(context.Background(), &s1.Loops[0], g, 12, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := balanceLoop(context.Background(), &s2.Loops[0], g, 12, p)
	if err != nil {
		t.Fatal(err)
	}
	if b.WeightedCost < 900*a.WeightedCost || b.WeightedCost > 1100*a.WeightedCost {
		t.Fatalf("iteration weighting broken: %v vs %v", a.WeightedCost, b.WeightedCost)
	}
	// The structural part is iteration-independent by design.
	if a.StructuralCost != b.StructuralCost {
		t.Fatalf("structural cost depends on iterations: %v vs %v",
			a.StructuralCost, b.StructuralCost)
	}
	if a.Cost != a.WeightedCost+a.StructuralCost {
		t.Fatal("Cost != WeightedCost + StructuralCost")
	}
}

func TestEmptyLoop(t *testing.T) {
	l := &spec.Loop{Name: "empty", Iterations: 5}
	sc, err := balanceLoop(context.Background(), l, nil, 3, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Cost != 0 || len(sc.Start) != 0 {
		t.Fatalf("empty loop schedule = %+v", sc)
	}
}

func TestPatternsMergeAndWeights(t *testing.T) {
	b := spec.NewBuilder("pat")
	b.Group("a", 64, 8).Group("b", 64, 8)
	b.Loop("l", 100)
	b.Read("a", 1)
	b.Read("b", 1)
	s := b.MustBuild()
	g := groupsMap(s)
	p := Params{}
	p.normalize()
	// Budget 1 forces both accesses into the same (only) cycle.
	sc, err := balanceLoop(context.Background(), &s.Loops[0], g, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	pats := patternsOfSpec(s, []*LoopSchedule{sc}, p)
	if len(pats) != 1 {
		t.Fatalf("%d patterns, want 1", len(pats))
	}
	if pats[0].Weight != 100 || pats[0].Access["a"] != 1 || pats[0].Access["b"] != 1 {
		t.Fatalf("pattern = %+v", pats[0])
	}
}

func TestRequiredPorts(t *testing.T) {
	pats := []Pattern{
		{Access: map[string]int{"a": 2, "b": 1}, Weight: 10},
		{Access: map[string]int{"a": 1, "c": 3}, Weight: 5},
	}
	ports := RequiredPorts(pats)
	if ports["a"] != 2 || ports["b"] != 1 || ports["c"] != 3 {
		t.Fatalf("ports = %v", ports)
	}
}

func TestDistributeInfeasible(t *testing.T) {
	s := fanInSpec(t, 4, 5, 1000)
	// Weighted MACP = 7 * 1000.
	if _, err := DistributeContext(context.Background(), s, 6999, Params{}); err == nil {
		t.Fatal("budget below MACP accepted")
	}
	if _, err := DistributeContext(context.Background(), s, 7000, Params{}); err != nil {
		t.Fatalf("budget at MACP rejected: %v", err)
	}
}

func TestDistributeSpendsWhereItHelps(t *testing.T) {
	s := fanInSpec(t, 5, 10, 1000)
	// Generous budget: the hot loop should be relaxed until conflict-free.
	d, err := DistributeContext(context.Background(), s, 40_000, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Cost != 0 {
		t.Fatalf("generous budget left cost %.1f, want 0", d.Cost)
	}
	if d.Used > d.TotalBudget {
		t.Fatalf("used %d exceeds budget %d", d.Used, d.TotalBudget)
	}
	if d.ExtraCycles() != d.TotalBudget-d.Used {
		t.Fatal("ExtraCycles inconsistent")
	}
	// Tight budget: cost must be higher.
	dt, err := DistributeContext(context.Background(), s, 12_000, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if dt.Cost <= d.Cost {
		t.Fatalf("tight budget cost %.1f not above generous %.1f", dt.Cost, d.Cost)
	}
}

func TestDistributeCostMonotoneInBudget(t *testing.T) {
	s := fanInSpec(t, 5, 10, 100)
	prev := -1.0
	for _, b := range []uint64{1200, 1400, 1600, 2000, 2600} {
		d, err := DistributeContext(context.Background(), s, b, Params{})
		if err != nil {
			t.Fatalf("budget %d: %v", b, err)
		}
		if prev >= 0 && d.Cost > prev+1e-9 {
			t.Fatalf("cost increased with budget: %.2f -> %.2f at %d", prev, d.Cost, b)
		}
		prev = d.Cost
	}
}

func TestDistributeUsedQuantizedByIterations(t *testing.T) {
	// Two loops with different iteration counts: budget commitments move in
	// whole-loop quanta (the paper's ~300k jumps).
	b := spec.NewBuilder("quanta")
	b.Group("big", offWords, 8)
	b.Group("small", 256, 8)
	b.Loop("hot", 300_000)
	r1 := b.Read("big", 1)
	r2 := b.Read("big", 1)
	b.Read("small", 1, r1, r2)
	b.Loop("cold", 1000)
	c1 := b.Read("big", 1)
	b.Read("small", 1, c1)
	s := b.MustBuild()

	d, err := DistributeContext(context.Background(), s, 3_000_000, Params{})
	if err != nil {
		t.Fatal(err)
	}
	// Used must decompose into hot*300000 + cold*1000 with integer budgets.
	var hot, cold uint64
	for _, l := range d.Loops {
		switch l.Loop {
		case "hot":
			hot = uint64(l.Budget)
		case "cold":
			cold = uint64(l.Budget)
		}
	}
	if d.Used != hot*300_000+cold*1000 {
		t.Fatalf("used %d != %d*300000 + %d*1000", d.Used, hot, cold)
	}
}

func TestPrunePatterns(t *testing.T) {
	pats := []Pattern{
		{Access: map[string]int{"a": 1}, Weight: 5},
		{Access: map[string]int{"a": 1, "b": 1}, Weight: 3},
		{Access: map[string]int{"a": 2}, Weight: 1},
		{Access: map[string]int{"a": 1}, Weight: 9}, // duplicate of first
	}
	out := PrunePatterns(pats)
	if len(out) != 2 {
		t.Fatalf("pruned to %d patterns, want 2: %v", len(out), out)
	}
	// Port requirements must be identical before and after pruning.
	before := RequiredPorts(pats)
	after := RequiredPorts(out)
	for g, p := range before {
		if after[g] != p {
			t.Fatalf("pruning changed ports for %s: %d -> %d", g, p, after[g])
		}
	}
}

func TestDurationModel(t *testing.T) {
	p := Params{}
	p.normalize()
	on := spec.BasicGroup{Name: "s", Words: 256, Bits: 8}
	off := spec.BasicGroup{Name: "b", Words: offWords, Bits: 8}
	if p.Duration(on) != 1 {
		t.Fatalf("on-chip duration = %d", p.Duration(on))
	}
	if p.Duration(off) != 2 {
		t.Fatalf("off-chip duration = %d", p.Duration(off))
	}
}

func TestPenaltiesOrdering(t *testing.T) {
	p := Params{}
	p.normalize()
	small := spec.BasicGroup{Name: "s", Words: 256, Bits: 8}
	big := spec.BasicGroup{Name: "b", Words: offWords, Bits: 8}
	if p.selfPenalty(big) <= p.selfPenalty(small) {
		t.Fatal("off-chip self conflict must cost more than on-chip")
	}
	if p.pairPenalty(small, big) != 0 {
		t.Fatal("cross-kind pair conflict should be free")
	}
	if p.pairPenalty(small, small) <= 0 || p.pairPenalty(big, big) <= 0 {
		t.Fatal("same-kind pair conflicts must cost something")
	}
}

// bruteForceBalance enumerates every dependence-feasible schedule of a tiny
// loop body and returns the minimal total cost (weighted + structural).
func bruteForceBalance(t *testing.T, l *spec.Loop, groups map[string]spec.BasicGroup, budget int, p Params) float64 {
	t.Helper()
	p.normalize()
	n := len(l.Accesses)
	dur := make([]int, n)
	for i, a := range l.Accesses {
		dur[i] = p.Duration(groups[a.Group])
	}
	starts := make([]int, n)
	best := -1.0
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			body := newLoopBody(l, groups, p, nil)
			s := body.newScheduler(budget, nil)
			for id, st := range starts {
				s.place(id, st)
			}
			total := s.cost*float64(l.Iterations) + s.structuralCost()
			if best < 0 || total < best {
				best = total
			}
			return
		}
		lo := 0
		for _, d := range l.Accesses[i].Deps {
			if f := starts[d] + dur[d]; f > lo {
				lo = f
			}
		}
		for c := lo; c+dur[i] <= budget; c++ {
			starts[i] = c
			rec(i + 1)
		}
	}
	// Accesses must be enumerated in an order where deps precede
	// dependents; builder IDs are already topological.
	rec(0)
	if best < 0 {
		t.Fatal("brute force found no feasible schedule")
	}
	return best
}

func TestBalanceNearOptimalOnTinyBodies(t *testing.T) {
	cases := []func(*spec.Builder){
		func(b *spec.Builder) { // two same-group reads + chain
			r1 := b.Read("on", 1)
			r2 := b.Read("on", 1)
			b.Read("on2", 1, r1, r2)
		},
		func(b *spec.Builder) { // off-chip fan-in
			r1 := b.Read("off", 1)
			r2 := b.Read("off", 1)
			x := b.Read("on", 1, r1, r2)
			b.Read("on", 1, x)
		},
		func(b *spec.Builder) { // independent mix
			b.Read("on", 1)
			b.Read("on2", 1)
			b.Read("off", 1)
			b.Read("on", 1)
		},
	}
	for ci, build := range cases {
		b := spec.NewBuilder("tiny")
		b.Group("on", 128, 8).Group("on2", 256, 16).Group("off", offWords, 8)
		b.Loop("l", 50)
		build(b)
		s := b.MustBuild()
		g := groupsMap(s)
		p := Params{}
		p.normalize()
		l := &s.Loops[0]
		for extra := 0; extra <= 3; extra++ {
			budget := WeightedCP(l, g, p) + extra
			got, err := balanceLoop(context.Background(), l, g, budget, p)
			if err != nil {
				t.Fatalf("case %d budget %d: %v", ci, budget, err)
			}
			want := bruteForceBalance(t, l, g, budget, p)
			if got.Cost < want-1e-6 {
				t.Fatalf("case %d budget %d: balancer %.2f below brute force %.2f (accounting bug)",
					ci, budget, got.Cost, want)
			}
			if want > 0 && got.Cost > want*1.5+1e-6 {
				t.Fatalf("case %d budget %d: balancer %.2f more than 1.5x optimum %.2f",
					ci, budget, got.Cost, want)
			}
			if want == 0 && got.Cost != 0 {
				t.Fatalf("case %d budget %d: optimum is conflict-free but balancer found %.2f",
					ci, budget, got.Cost)
			}
		}
	}
}

func TestPipelinedAllowsBudgetBelowCP(t *testing.T) {
	s := fanInSpec(t, 5, 10, 1000)
	l := &s.Loops[0]
	g := groupsMap(s)
	linear := Params{}
	linear.normalize()
	cp := WeightedCP(l, g, linear)

	// Linear scheduling rejects budgets below the critical path…
	if _, err := balanceLoop(context.Background(), l, g, cp-3, linear); err == nil {
		t.Fatal("linear balance accepted budget below CP")
	}
	// …modulo scheduling accepts them (iterations overlap).
	pipe := Params{Pipelined: true}
	pipe.normalize()
	sc, err := balanceLoop(context.Background(), l, g, cp-3, pipe)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range l.Accesses {
		st := sc.Start[a.ID]
		if st < 0 {
			t.Fatalf("access %d unplaced", a.ID)
		}
		for _, dep := range a.Deps {
			if sc.Start[dep]+pipe.Duration(g[l.Accesses[dep].Group]) > st {
				t.Fatalf("pipelined schedule violates dependence %d -> %d", dep, a.ID)
			}
		}
	}
}

func TestPipelinedTightIIForcesOffChipPorts(t *testing.T) {
	// The Table 3 extension: pushing the initiation interval well below
	// the body's serial off-chip demand forces off-chip overlap — the
	// paper's off-chip cost jump at the tightest budget.
	s := fanInSpec(t, 5, 10, 1000)
	l := &s.Loops[0]
	g := groupsMap(s)
	pipe := Params{Pipelined: true}
	pipe.normalize()

	// 5 off-chip reads × 2 cycles = 10 busy cycles; II = 6 cannot host
	// them on one port.
	sc, err := balanceLoop(context.Background(), l, g, 6, pipe)
	if err != nil {
		t.Fatal(err)
	}
	ports := RequiredPorts(patternsOfSpec(s, []*LoopSchedule{sc}, pipe))
	if ports["big"] < 2 {
		t.Fatalf("II 6 with 10 off-chip busy cycles: big needs %d ports, want >= 2", ports["big"])
	}
	// A relaxed II serializes them again.
	sc2, err := balanceLoop(context.Background(), l, g, 22, pipe)
	if err != nil {
		t.Fatal(err)
	}
	ports2 := RequiredPorts(patternsOfSpec(s, []*LoopSchedule{sc2}, pipe))
	if ports2["big"] != 1 {
		t.Fatalf("relaxed II: big needs %d ports, want 1", ports2["big"])
	}
}

func TestPipelinedPatternAccounting(t *testing.T) {
	// Σ multiplicities × weight over the modulo patterns still equals the
	// total busy cycles per frame.
	s := fanInSpec(t, 3, 4, 10)
	l := &s.Loops[0]
	g := groupsMap(s)
	pipe := Params{Pipelined: true}
	pipe.normalize()
	sc, err := balanceLoop(context.Background(), l, g, 5, pipe)
	if err != nil {
		t.Fatal(err)
	}
	var busy int
	for _, a := range l.Accesses {
		busy += pipe.Duration(g[a.Group])
	}
	var acc uint64
	for _, pt := range patternsOfSpec(s, []*LoopSchedule{sc}, pipe) {
		for _, k := range pt.Access {
			acc += uint64(k) * pt.Weight
		}
	}
	if acc != uint64(busy)*l.Iterations {
		t.Fatalf("pattern accounting %d != busy %d × iters %d", acc, busy, l.Iterations)
	}
}

func TestPipelinedDistributeBelowMACP(t *testing.T) {
	s := fanInSpec(t, 4, 5, 1000)
	// Weighted MACP = 7000; a linear distribute rejects 6000, a pipelined
	// one accepts it (at a conflict price).
	if _, err := DistributeContext(context.Background(), s, 6000, Params{}); err == nil {
		t.Fatal("linear distribute accepted budget below MACP")
	}
	d, err := DistributeContext(context.Background(), s, 6000, Params{Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.Used > 6000 {
		t.Fatalf("pipelined distribute overran: %d", d.Used)
	}
	// Tighter budgets cost more.
	d2, err := DistributeContext(context.Background(), s, 4000, Params{Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Cost < d.Cost {
		t.Fatalf("tighter pipelined budget got cheaper: %.1f vs %.1f", d2.Cost, d.Cost)
	}
}

// Property: for random DAGs and feasible budgets, balanced schedules are
// always dependence- and budget-valid, and patterns account for every
// access-cycle.
func TestQuickScheduleValidity(t *testing.T) {
	f := func(edges []uint16, sizes []bool, extra uint8) bool {
		n := 8
		b := spec.NewBuilder("q")
		b.Group("on", 128, 8)
		b.Group("off", offWords, 8)
		depsOf := make([][]int, n)
		for _, e := range edges {
			from := int(e) % n
			to := int(e>>4) % n
			if from < to {
				depsOf[to] = append(depsOf[to], from)
			}
		}
		b.Loop("l", 3)
		for i := 0; i < n; i++ {
			grp := "on"
			if i < len(sizes) && sizes[i] {
				grp = "off"
			}
			b.Read(grp, 1, depsOf[i]...)
		}
		s, err := b.Build()
		if err != nil {
			return false
		}
		g := groupsMap(s)
		p := Params{}
		p.normalize()
		l := &s.Loops[0]
		budget := WeightedCP(l, g, p) + int(extra)%6
		sc, err := balanceLoop(context.Background(), l, g, budget, p)
		if err != nil {
			return false
		}
		total := 0
		for _, a := range l.Accesses {
			st := sc.Start[a.ID]
			d := p.Duration(g[a.Group])
			if st < 0 || st+d > budget {
				return false
			}
			for _, dep := range a.Deps {
				if sc.Start[dep]+p.Duration(g[l.Accesses[dep].Group]) > st {
					return false
				}
			}
			total += d
		}
		// Pattern accounting: Σ multiplicities × weight = Σ durations × iters.
		var acc uint64
		for _, pt := range patternsOfSpec(s, []*LoopSchedule{sc}, p) {
			for _, k := range pt.Access {
				acc += uint64(k) * pt.Weight
			}
		}
		return acc == uint64(total)*l.Iterations
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// denseRef is an independent, from-scratch model of the scheduler's cost
// accounting: plain [slot][branch][group] counters priced by the dense
// definition on every read, with no cached or sparse state.
type denseRef struct {
	s    *scheduler // penalty tables and ids only
	cnt  []int
	cost float64
}

// patternCost is the dense pattern price: every group scanned, self term
// then pair terms for ascending i, pair terms in ascending j.
func (r *denseRef) patternCost(cnt []int) float64 {
	var c float64
	for i, k := range cnt {
		if k == 0 {
			continue
		}
		if k > 1 {
			c += float64((k-1)*(k-1)) * r.s.self[i]
		}
		row := r.s.pair[i*r.s.ng : (i+1)*r.s.ng]
		for j := i + 1; j < len(cnt); j++ {
			if cnt[j] != 0 {
				c += row[j]
			}
		}
	}
	return c
}

// cycleCost is the worst branch scenario of a slot, or the common pattern
// when no branch is active.
func (r *denseRef) cycleCost(slot int) float64 {
	ng, nb := r.s.ng, r.s.nb
	base := slot * nb * ng
	common := r.cnt[base : base+ng]
	merged := make([]int, ng)
	worst, anyBranch := 0.0, false
	for b := 1; b < nb; b++ {
		br := r.cnt[base+b*ng : base+(b+1)*ng]
		active := false
		for g := range merged {
			merged[g] = common[g] + br[g]
			active = active || br[g] != 0
		}
		if !active {
			continue
		}
		anyBranch = true
		if c := r.patternCost(merged); c > worst {
			worst = c
		}
	}
	if !anyBranch {
		return r.patternCost(common)
	}
	return worst
}

// move adds delta occupancies of access id starting at cycle c, with the
// scheduler's subtract-then-add cost sequence per touched slot.
func (r *denseRef) move(id, c, delta int) {
	s := r.s
	for k := c; k < c+s.dur[id]; k++ {
		slot := s.slot(k)
		r.cost -= r.cycleCost(slot)
		r.cnt[(slot*s.nb+s.bid[id])*s.ng+s.gid[id]] += delta
		r.cost += r.cycleCost(slot)
	}
}

// liveState snapshots the scheduler state a trial must leave untouched: the
// counters, the live prefix of every nonzero list, the price of every active
// branch scenario, the cycle costs and the group masks. Entries past a
// list's length and prices of inactive scenarios are dead and never read.
func liveState(s *scheduler) string {
	var b strings.Builder
	fmt.Fprint(&b, s.cnt, s.act, s.cyc, s.mask)
	for r, n := range s.act {
		fmt.Fprint(&b, s.nz[r*s.ng:r*s.ng+n])
		if r%s.nb != 0 && n > 0 {
			fmt.Fprintf(&b, "%x", math.Float64bits(s.scen[r]))
		}
	}
	return b.String()
}

// TestCachedCostsMatchDense drives random place/unplace/trialCost
// sequences through the scheduler and a dense from-scratch reference, and
// requires the running cost, every trial value, every cached cycle cost and
// every row's group mask to agree bit for bit. The loops carry branches and
// off-chip groups of 2–4 cycles; pipelined budgets go below the access
// duration, so one access wraps onto the same slot more than once. Every
// trial must leave the scheduler's occupancy and cached prices as it found
// them, and all three trial paths — closed form on conflict-free slots,
// priced, and the wrap fallback — must be exercised. The last seeds use
// loops with more than 64 groups, whose masks share bits.
func TestCachedCostsMatchDense(t *testing.T) {
	var free, priced, wrapped int
	for seed := int64(1); seed <= 160; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sp := randomSpec(seed)
		if seed > 150 {
			sp = wideSpec(seed)
		}
		l := &sp.Loops[0]
		p := Params{Pipelined: rng.Intn(2) == 0}
		p.normalize()
		budget := 1 + rng.Intn(6)
		if !p.Pipelined {
			budget = WeightedCP(l, groupsMap(sp), p) + rng.Intn(4)
		}
		body := newLoopBody(l, groupsMap(sp), p, nil)
		s := body.newScheduler(budget, nil)
		ref := &denseRef{s: s, cnt: make([]int, len(s.cnt))}
		randCycle := func(id int) int {
			if p.Pipelined {
				return rng.Intn(2 * budget)
			}
			return rng.Intn(budget - s.dur[id] + 1)
		}
		for op := 0; op < 400; op++ {
			id := rng.Intn(len(l.Accesses))
			switch {
			case s.start[id] >= 0:
				ref.move(id, s.start[id], -1)
				s.unplace(id)
			case rng.Intn(3) == 0:
				c := randCycle(id)
				ref.move(id, c, +1)
				s.place(id, c)
			default:
				c := randCycle(id)
				ref.move(id, c, +1)
				want := ref.cost
				ref.move(id, c, -1)
				before, freeBefore := liveState(s), s.freeTrials
				if got := s.trialCost(id, c); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d op %d: trialCost(%d, %d) = %v, dense %v", seed, op, id, c, got, want)
				}
				if s.start[id] != -1 {
					t.Fatalf("seed %d op %d: trialCost left access %d placed", seed, op, id)
				}
				if after := liveState(s); after != before {
					t.Fatalf("seed %d op %d: trialCost(%d, %d) changed the scheduler state:\n%s\n%s",
						seed, op, id, c, before, after)
				}
				switch {
				case s.dur[id] > budget:
					wrapped++
				case s.freeTrials > freeBefore:
					free++
				default:
					priced++
				}
			}
			if math.Float64bits(s.cost) != math.Float64bits(ref.cost) {
				t.Fatalf("seed %d op %d: cost %v, dense %v", seed, op, s.cost, ref.cost)
			}
			for slot := 0; slot < budget; slot++ {
				if want := ref.cycleCost(slot); math.Float64bits(s.cyc[slot]) != math.Float64bits(want) {
					t.Fatalf("seed %d op %d: cyc[%d] = %v, dense %v", seed, op, slot, s.cyc[slot], want)
				}
			}
			for row := range s.mask {
				var mask uint64
				for g, k := range ref.cnt[row*s.ng : (row+1)*s.ng] {
					if k != 0 {
						mask |= groupBit(g)
					}
				}
				if s.mask[row] != mask {
					t.Fatalf("seed %d op %d: mask[%d] = %#x, dense %#x", seed, op, row, s.mask[row], mask)
				}
			}
		}
	}
	t.Logf("trials: %d conflict-free, %d priced, %d wrapped", free, priced, wrapped)
	if free == 0 || priced == 0 || wrapped == 0 {
		t.Fatalf("a trial path went unexercised: %d conflict-free, %d priced, %d wrapped", free, priced, wrapped)
	}
}

// multiLoopSpec builds a seeded random spec of 1–8 loops sharing 2–8
// groups: iteration counts from 1 to 65 536 spread over every magnitude,
// group widths of 2–20 bits (irrational penalty proxies, so the running
// cost drifts by rounding), about a third of the groups off-chip,
// fractional access counts, random earlier-access dependences and up to
// three branch tags per loop.
func multiLoopSpec(seed int64) *spec.Spec {
	rng := rand.New(rand.NewSource(seed))
	b := spec.NewBuilder(fmt.Sprintf("multi%d", seed))
	ng := 2 + rng.Intn(7)
	for g := 0; g < ng; g++ {
		words := int64(16) << rng.Intn(8)
		if rng.Intn(3) == 0 {
			words = offWords
		}
		b.Group(fmt.Sprintf("g%d", g), words, 2+rng.Intn(19))
	}
	nl := 1 + rng.Intn(8)
	for li := 0; li < nl; li++ {
		b.Loop(fmt.Sprintf("l%d", li), uint64(1+rng.Intn(1<<uint(rng.Intn(17)))))
		n := 2 + rng.Intn(9)
		nbr := rng.Intn(4)
		for i := 0; i < n; i++ {
			tag := ""
			if nbr > 0 && rng.Intn(2) == 0 {
				tag = fmt.Sprintf("br%d", rng.Intn(nbr))
			}
			b.Branch(tag)
			var deps []int
			for j := 0; j < i && len(deps) < 3; j++ {
				if rng.Intn(4) == 0 {
					deps = append(deps, j)
				}
			}
			grp := fmt.Sprintf("g%d", rng.Intn(ng))
			count := float64(1+rng.Intn(8)) / float64(1+rng.Intn(4))
			if rng.Intn(3) == 0 {
				b.Write(grp, count, deps...)
			} else {
				b.Read(grp, count, deps...)
			}
		}
		b.Branch("")
	}
	return b.MustBuild()
}

// distributeEager is the reference distributor the demand-driven curves
// must reproduce: it balances every point of every cost curve up front
// (each curve from its minimum budget to its first conflict-free point or
// its serial schedule, monotonized), then runs the marginal-gain greedy
// over the complete curves. It returns the number of points it balanced.
func distributeEager(s *spec.Spec, totalBudget uint64, p Params) (*Distribution, int, error) {
	p.normalize()
	p.Obs, p.Memo, p.Progress = nil, nil, nil
	groups := groupsOf(s)
	type curve struct {
		loop   *spec.Loop
		scheds []*LoopSchedule
		chosen int
	}
	var curves []*curve
	var minTotal uint64
	points := 0
	for i := range s.Loops {
		l := &s.Loops[i]
		if len(l.Accesses) == 0 {
			continue
		}
		lo, hi := WeightedCP(l, groups, p), 0
		if p.Pipelined {
			lo = 1
		}
		for _, a := range l.Accesses {
			d := p.Duration(groups[a.Group])
			hi += d
			if p.Pipelined && d > lo {
				lo = d
			}
		}
		hi = max(hi, lo)
		minTotal += uint64(lo) * l.Iterations
		cv := &curve{loop: l}
		for b := lo; b <= hi; b++ {
			sc, err := balanceLoop(context.Background(), l, groups, b, p)
			if err != nil {
				return nil, 0, err
			}
			points++
			raw := sc
			if n := len(cv.scheds); n > 0 && sc.Cost >= cv.scheds[n-1].Cost {
				sc = cv.scheds[n-1]
			}
			cv.scheds = append(cv.scheds, sc)
			if raw.Cost == 0 {
				break
			}
		}
		curves = append(curves, cv)
	}
	if minTotal > totalBudget {
		return nil, 0, fmt.Errorf("budget %d below weighted MACP %d", totalBudget, minTotal)
	}
	remaining := totalBudget - minTotal
	for {
		best, bestJ := -1, 0
		bestRatio := 0.0
		for i, cv := range curves {
			for j := cv.chosen + 1; j < len(cv.scheds); j++ {
				spend := uint64(j-cv.chosen) * cv.loop.Iterations
				if spend > remaining {
					break
				}
				gain := cv.scheds[cv.chosen].Cost - cv.scheds[j].Cost
				if gain <= 0 {
					continue
				}
				if ratio := gain / float64(spend); ratio > bestRatio+1e-12 {
					best, bestJ, bestRatio = i, j, ratio
				}
			}
		}
		if best < 0 {
			break
		}
		remaining -= uint64(bestJ-curves[best].chosen) * curves[best].loop.Iterations
		curves[best].chosen = bestJ
	}
	d := &Distribution{TotalBudget: totalBudget}
	for _, cv := range curves {
		sc := cv.scheds[cv.chosen]
		d.Degraded = d.Degraded || sc.Degraded
		d.Loops = append(d.Loops, sc)
		d.Used += uint64(sc.Budget) * cv.loop.Iterations
		d.Cost += sc.Cost
	}
	d.Patterns = patternsOfSpec(s, d.Loops, p)
	return d, points, nil
}

// distributePoints runs DistributeContext under a collecting observer and
// returns the distribution with the number of curve points it built.
func distributePoints(t *testing.T, ctx context.Context, s *spec.Spec, budget uint64, p Params) (*Distribution, int) {
	t.Helper()
	c := obs.NewCollector()
	root := obs.New(c).Start("test")
	p.Obs = root
	d, err := DistributeContext(ctx, s, budget, p)
	if err != nil {
		t.Fatalf("%s budget %d: %v", s.Name, budget, err)
	}
	root.End()
	recs := c.Find("sbd.distribute")
	if len(recs) != 1 {
		t.Fatalf("%d sbd.distribute spans, want 1", len(recs))
	}
	return d, int(recs[0].Fields["curve_points"].(int64))
}

// sameDistribution reports the first difference between two distributions
// in the committed output: Used, the Cost bits, Degraded, every loop's
// budget and start cycles, and the conflict patterns.
func sameDistribution(got, want *Distribution) string {
	switch {
	case got.Used != want.Used:
		return fmt.Sprintf("used %d, want %d", got.Used, want.Used)
	case math.Float64bits(got.Cost) != math.Float64bits(want.Cost):
		return fmt.Sprintf("cost %v, want %v", got.Cost, want.Cost)
	case got.Degraded != want.Degraded:
		return fmt.Sprintf("degraded %t, want %t", got.Degraded, want.Degraded)
	case len(got.Loops) != len(want.Loops):
		return fmt.Sprintf("%d loops, want %d", len(got.Loops), len(want.Loops))
	}
	for i, g := range got.Loops {
		w := want.Loops[i]
		if g.Loop != w.Loop || g.Budget != w.Budget || fmt.Sprint(g.Start) != fmt.Sprint(w.Start) {
			return fmt.Sprintf("loop %s: budget %d start %v, want %s budget %d start %v",
				g.Loop, g.Budget, g.Start, w.Loop, w.Budget, w.Start)
		}
	}
	if g, w := FingerprintPatterns(got.Patterns), FingerprintPatterns(want.Patterns); g != w {
		return fmt.Sprintf("patterns %s, want %s", g, w)
	}
	return ""
}

// weightedMACP is the smallest total budget a linear distribution of s
// accepts: every loop's weighted critical path times its iterations.
func weightedMACP(s *spec.Spec) uint64 {
	groups := groupsOf(s)
	var macp uint64
	for i := range s.Loops {
		macp += uint64(WeightedCP(&s.Loops[i], groups, Params{})) * s.Loops[i].Iterations
	}
	return macp
}

// TestDistributeMatchesEager requires the demand-driven distributor to
// commit bit for bit what the eager reference commits, on random multi-loop
// specs in both scheduling modes, at budgets from the weighted MACP to 1.5×
// of it, with no session cache and with one cache shared across the
// budgets. It fails unless some case built fewer curve points than the
// reference, so it cannot pass with the demand-driven path switched off.
func TestDistributeMatchesEager(t *testing.T) {
	cases, fewer, built, eager := 0, 0, 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		s := multiLoopSpec(seed)
		macp := weightedMACP(s)
		rng := rand.New(rand.NewSource(seed))
		budgets := []uint64{macp, macp + macp/2}
		for k := 0; k < 3; k++ {
			budgets = append(budgets, macp+uint64(rng.Int63n(int64(macp/2)+1)))
		}
		for _, pipelined := range []bool{false, true} {
			session := memo.New(memo.Schedule)
			for _, budget := range budgets {
				p := Params{Pipelined: pipelined}
				want, points, err := distributeEager(s, budget, p)
				if err != nil {
					t.Fatalf("%s budget %d: %v", s.Name, budget, err)
				}
				got, n := distributePoints(t, context.Background(), s, budget, p)
				if diff := sameDistribution(got, want); diff != "" {
					t.Fatalf("%s pipelined=%t budget %d: %s", s.Name, pipelined, budget, diff)
				}
				p.Memo = session
				cached, _ := distributePoints(t, context.Background(), s, budget, p)
				if diff := sameDistribution(cached, want); diff != "" {
					t.Fatalf("%s pipelined=%t budget %d, shared cache: %s", s.Name, pipelined, budget, diff)
				}
				cases++
				built += n
				eager += points
				if n < points {
					fewer++
				}
			}
		}
	}
	t.Logf("%d cases: %d built fewer points than the eager reference (%d vs %d points in all)",
		cases, fewer, built, eager)
	if fewer == 0 {
		t.Fatal("no case built fewer curve points than the eager reference")
	}
}

// patternsTwoStage is the reference derivation patternsOf's one-pass merge
// must reproduce: each loop's patterns are merged and sorted on their own,
// then re-keyed by patternKey and merged across loops into copies.
func patternsTwoStage(s *spec.Spec, scheds []*LoopSchedule, p Params) []Pattern {
	p.normalize()
	groups := groupsOf(s)
	byKey := make(map[string]*Pattern)
	for _, sc := range scheds {
		var l *spec.Loop
		for i := range s.Loops {
			if s.Loops[i].Name == sc.Loop {
				l = &s.Loops[i]
				break
			}
		}
		if l == nil || len(l.Accesses) == 0 {
			continue
		}
		perLoop := make(map[string]*Pattern)
		loopPatterns(l, sc, groups, p, perLoop)
		for _, pt := range sortedPatterns(perLoop) {
			k := patternKey(pt.Access)
			if ex := byKey[k]; ex != nil {
				ex.Weight += pt.Weight
				continue
			}
			cp := Pattern{Access: make(map[string]int, len(pt.Access)), Weight: pt.Weight}
			for g, c := range pt.Access {
				cp.Access[g] = c
			}
			byKey[k] = &cp
		}
	}
	return sortedPatterns(byKey)
}

// TestPatternsOfMatchesTwoStage requires patternsOf to equal the two-stage
// reference on random single- and multi-loop specs, at three budgets, in
// both scheduling modes. Each distribution's schedules are also derived
// twice over, so every pattern recurs across loops and the cross-loop
// weight merge is exercised on every case.
func TestPatternsOfMatchesTwoStage(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		for _, s := range []*spec.Spec{randomSpec(seed), multiLoopSpec(seed)} {
			macp := weightedMACP(s)
			for _, pipelined := range []bool{false, true} {
				p := Params{Pipelined: pipelined}
				for _, budget := range []uint64{macp, macp + macp/4, 2 * macp} {
					d, err := DistributeContext(context.Background(), s, budget, p)
					if err != nil {
						t.Fatalf("%s budget %d: %v", s.Name, budget, err)
					}
					twice := append(append([]*LoopSchedule{}, d.Loops...), d.Loops...)
					for _, scheds := range [][]*LoopSchedule{d.Loops, twice} {
						got, want := patternsOfSpec(s, scheds, p), patternsTwoStage(s, scheds, p)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s pipelined=%t budget %d, %d schedules: patterns %s, want %s",
								s.Name, pipelined, budget, len(scheds),
								FingerprintPatterns(got), FingerprintPatterns(want))
						}
					}
				}
			}
		}
	}
}

// TestDistributeCanceledBuildsMinimumPoints: under a dead context only the
// minimum-budget point of each curve is built and committed, the result is
// flagged Degraded, and its cost is never below the full run's.
func TestDistributeCanceledBuildsMinimumPoints(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for seed := int64(1); seed <= 20; seed++ {
		s := multiLoopSpec(seed)
		groups := groupsOf(s)
		budget := weightedMACP(s) * 3 / 2
		d, points := distributePoints(t, ctx, s, budget, Params{})
		if points != len(s.Loops) {
			t.Fatalf("%s: canceled run built %d curve points for %d loops", s.Name, points, len(s.Loops))
		}
		if !d.Degraded {
			t.Fatalf("%s: canceled run not flagged Degraded", s.Name)
		}
		for i, ls := range d.Loops {
			if cp := WeightedCP(&s.Loops[i], groups, Params{}); ls.Budget != cp {
				t.Fatalf("%s: loop %s committed budget %d, want its minimum %d", s.Name, ls.Loop, ls.Budget, cp)
			}
		}
		full, err := DistributeContext(context.Background(), s, budget, Params{})
		if err != nil {
			t.Fatal(err)
		}
		if d.Cost < full.Cost {
			t.Fatalf("%s: canceled cost %v below the full run's %v", s.Name, d.Cost, full.Cost)
		}
	}
}
