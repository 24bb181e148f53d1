package assign

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/memlib"
	"repro/internal/obs"
	"repro/internal/sbd"
	"repro/internal/spec"
)

const offWords = 1024 * 1024

// mixedSpec: two off-chip groups and several on-chip groups with varied
// widths and access counts.
func mixedSpec(t *testing.T) *spec.Spec {
	t.Helper()
	b := spec.NewBuilder("mixed")
	b.Group("big1", offWords, 8)
	b.Group("big2", offWords, 2)
	b.Group("t20", 512, 20)
	b.Group("t10", 512, 10)
	b.Group("t8", 256, 8)
	b.Group("t2", 256, 2)
	b.Loop("l", 100_000)
	b.Read("big1", 2)
	b.Write("big1", 1)
	b.Read("big2", 1)
	b.Read("t20", 4)
	b.Write("t20", 2)
	b.Read("t10", 3)
	b.Read("t8", 1)
	b.Read("t2", 1)
	return b.MustBuild()
}

func TestAssignBasic(t *testing.T) {
	s := mixedSpec(t)
	tech := memlib.Default()
	a, err := AssignContext(context.Background(), s, nil, tech, 2, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Optimal {
		t.Fatal("small problem not solved to optimality")
	}
	if len(a.OnChip) == 0 || len(a.OnChip) > 2 {
		t.Fatalf("%d on-chip memories, want 1..2", len(a.OnChip))
	}
	if len(a.OffChip) == 0 {
		t.Fatal("no off-chip memories for 1M-word groups")
	}
	// Every accessed group must be mapped.
	for _, g := range []string{"big1", "big2", "t20", "t10", "t8", "t2"} {
		if a.GroupMem[g] == "" {
			t.Errorf("group %s unmapped", g)
		}
	}
	if a.Cost.OnChipArea <= 0 || a.Cost.OnChipPower <= 0 || a.Cost.OffChipPower <= 0 {
		t.Fatalf("degenerate cost: %+v", a.Cost)
	}
	if a.Cost.TotalPower() != a.Cost.OnChipPower+a.Cost.OffChipPower {
		t.Fatal("TotalPower inconsistent")
	}
}

func TestOptimalNotWorseThanGreedy(t *testing.T) {
	s := mixedSpec(t)
	tech := memlib.Default()
	for _, n := range []int{1, 2, 3, 4} {
		opt, err := AssignContext(context.Background(), s, nil, tech, n, Params{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		gr, err := Greedy(s, nil, tech, n, Params{})
		if err != nil {
			t.Fatalf("n=%d greedy: %v", n, err)
		}
		optSum := opt.Cost.OnChipPower + areaWeight*opt.Cost.OnChipArea
		grSum := gr.Cost.OnChipPower + areaWeight*gr.Cost.OnChipArea
		if optSum > grSum+1e-9 {
			t.Fatalf("n=%d: optimal %.3f worse than greedy %.3f", n, optSum, grSum)
		}
	}
}

func TestBitwidthWasteSeparation(t *testing.T) {
	// Two groups, 20-bit and 2-bit, equal accesses. With 2 memories the
	// optimizer must separate them (avoiding 18 wasted bits on the narrow
	// group); the 1-memory cost must exceed the 2-memory cost in power.
	b := spec.NewBuilder("waste")
	b.Group("wide", 4096, 20)
	b.Group("narrow", 4096, 2)
	b.Loop("l", 1_000_000)
	b.Read("wide", 1)
	b.Read("narrow", 1)
	s := b.MustBuild()
	tech := memlib.Default()

	one, err := AssignContext(context.Background(), s, nil, tech, 1, Params{})
	if err != nil {
		t.Fatal(err)
	}
	two, err := AssignContext(context.Background(), s, nil, tech, 2, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(two.OnChip) != 2 {
		t.Fatalf("2-memory allocation used %d memories", len(two.OnChip))
	}
	if two.Cost.OnChipPower >= one.Cost.OnChipPower {
		t.Fatalf("separation did not cut power: %.3f vs %.3f",
			two.Cost.OnChipPower, one.Cost.OnChipPower)
	}
	// The wide and narrow group must not share a memory.
	if two.GroupMem["wide"] == two.GroupMem["narrow"] {
		t.Fatal("optimizer co-located 20-bit and 2-bit groups despite 2 memories")
	}
}

func TestConflictsForceSeparation(t *testing.T) {
	// Two on-chip groups accessed simultaneously, five times and four
	// times: together they need nine ports, above the cap of eight, so
	// they cannot share a memory.
	build := func(na, nb int) *spec.Spec {
		b := spec.NewBuilder("conf")
		b.Group("a", 256, 8)
		b.Group("b", 256, 8)
		b.Loop("l", 1000)
		for i := 0; i < na; i++ {
			b.Read("a", 1)
		}
		for i := 0; i < nb; i++ {
			b.Read("b", 1)
		}
		return b.MustBuild()
	}
	tech := memlib.Default()
	s := build(5, 4)
	pats := []sbd.Pattern{{Access: map[string]int{"a": 5, "b": 4}, Weight: 1000}}
	a2, err := AssignContext(context.Background(), s, pats, tech, 2, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if a2.GroupMem["a"] == a2.GroupMem["b"] {
		t.Fatal("conflicting groups share a memory past the port cap")
	}
	if _, err := AssignContext(context.Background(), s, pats, tech, 1, Params{}); err == nil {
		t.Fatal("1 memory needing 9 ports should be infeasible")
	}
	// At four and four, one memory becomes feasible at exactly the cap.
	s = build(4, 4)
	pats = []sbd.Pattern{{Access: map[string]int{"a": 4, "b": 4}, Weight: 1000}}
	a1, err := AssignContext(context.Background(), s, pats, tech, 1, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if a1.OnChip[0].Mem.Ports != maxPorts {
		t.Fatalf("shared memory has %d ports, want %d", a1.OnChip[0].Mem.Ports, maxPorts)
	}
}

func TestSelfConflictForcesMultiport(t *testing.T) {
	b := spec.NewBuilder("self")
	b.Group("a", 256, 8)
	b.Loop("l", 1000)
	b.Read("a", 1)
	b.Read("a", 1)
	s := b.MustBuild()
	pats := []sbd.Pattern{{Access: map[string]int{"a": 2}, Weight: 1000}}
	a, err := AssignContext(context.Background(), s, pats, memlib.Default(), 1, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if a.OnChip[0].Mem.Ports != 2 {
		t.Fatalf("self-conflicting group got %d ports, want 2", a.OnChip[0].Mem.Ports)
	}
}

func TestOffChipMergedWidthRounding(t *testing.T) {
	// A 10-bit off-chip group must land in a 16-bit catalog device — the
	// paper's merged ridge+pyr observation.
	b := spec.NewBuilder("width")
	b.Group("merged", offWords, 10)
	b.Loop("l", 1000)
	b.Read("merged", 1)
	s := b.MustBuild()
	a, err := AssignContext(context.Background(), s, nil, memlib.Default(), 1, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.OffChip) != 1 || a.OffChip[0].Mem.Bits != 16 {
		t.Fatalf("off-chip binding = %+v, want one 16-bit device", a.OffChip)
	}
}

func TestOffChipPortPenalty(t *testing.T) {
	// The same group with and without a self-conflict pattern: the 2-port
	// version must cost much more off-chip power (Table 2's "no hierarchy"
	// effect).
	b := spec.NewBuilder("ports")
	b.Group("img", offWords, 8)
	b.Loop("l", 1_000_000)
	b.Read("img", 5)
	s := b.MustBuild()
	tech := memlib.Default()
	p1, err := AssignContext(context.Background(), s, nil, tech, 1, Params{})
	if err != nil {
		t.Fatal(err)
	}
	pats := []sbd.Pattern{{Access: map[string]int{"img": 2}, Weight: 1_000_000}}
	p2, err := AssignContext(context.Background(), s, pats, tech, 1, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Cost.OffChipPower < 1.5*p1.Cost.OffChipPower {
		t.Fatalf("2-port off-chip power %.1f not >= 1.5x 1-port %.1f",
			p2.Cost.OffChipPower, p1.Cost.OffChipPower)
	}
}

// sweep assigns s at each on-chip count (Table 4's axis), skipping
// infeasible counts, and returns the assignments with the counts they
// belong to. It fails the test if no count is feasible.
func sweep(t *testing.T, s *spec.Spec, tech *memlib.Tech, counts []int) ([]*Assignment, []int) {
	t.Helper()
	var as []*Assignment
	var ok []int
	for _, c := range counts {
		if a, err := AssignContext(context.Background(), s, nil, tech, c, Params{}); err == nil {
			as = append(as, a)
			ok = append(ok, c)
		}
	}
	if len(as) == 0 {
		t.Fatalf("no feasible allocation in sweep %v", counts)
	}
	return as, ok
}

func TestSweepShapes(t *testing.T) {
	// Build a spec with many same-ish small groups: the allocation sweep
	// must show monotone non-increasing power, and area that eventually
	// rises again (per-memory overhead), with off-chip power constant.
	b := spec.NewBuilder("sweep")
	widths := []int{20, 20, 16, 12, 10, 8, 8, 6, 4, 2}
	for i, w := range widths {
		b.Group(groupName(i), 512, w)
	}
	b.Group("big", offWords, 8)
	b.Loop("l", 500_000)
	for i := range widths {
		b.Read(groupName(i), 1)
	}
	b.Read("big", 1)
	s := b.MustBuild()
	tech := memlib.Default()

	counts := []int{1, 2, 4, 6, 8, 10}
	as, ok := sweep(t, s, tech, counts)
	if len(ok) != len(counts) {
		t.Fatalf("sweep dropped counts: %v", ok)
	}
	for i := 1; i < len(as); i++ {
		if as[i].Cost.OnChipPower > as[i-1].Cost.OnChipPower+1e-6 {
			t.Fatalf("power not non-increasing at %d memories: %.3f -> %.3f",
				ok[i], as[i-1].Cost.OnChipPower, as[i].Cost.OnChipPower)
		}
		if as[i].Cost.OffChipPower != as[0].Cost.OffChipPower {
			t.Fatalf("off-chip power changed during on-chip sweep")
		}
	}
	// Area at the largest allocation must exceed the area minimum
	// (overhead eventually wins).
	minArea := as[0].Cost.OnChipArea
	for _, a := range as {
		if a.Cost.OnChipArea < minArea {
			minArea = a.Cost.OnChipArea
		}
	}
	if last := as[len(as)-1].Cost.OnChipArea; last <= minArea {
		t.Fatalf("area at max allocation %.3f not above minimum %.3f", last, minArea)
	}
}

func groupName(i int) string {
	return "g" + string(rune('a'+i))
}

func TestAssignInvalidCount(t *testing.T) {
	s := mixedSpec(t)
	if _, err := AssignContext(context.Background(), s, nil, memlib.Default(), 0, Params{}); err == nil {
		t.Fatal("zero on-chip count accepted")
	}
}

func TestUnaccessedGroupIgnored(t *testing.T) {
	b := spec.NewBuilder("dead")
	b.Group("live", 256, 8)
	b.Group("dead", 256, 8)
	b.Loop("l", 10)
	b.Read("live", 1)
	s := b.MustBuild()
	a, err := AssignContext(context.Background(), s, nil, memlib.Default(), 4, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, mapped := a.GroupMem["dead"]; mapped {
		t.Fatal("never-accessed group was allocated storage")
	}
	if len(a.OnChip) != 1 {
		t.Fatalf("%d memories allocated for one live group", len(a.OnChip))
	}
}

// TestNodeBudgetFallsBackToGreedy: a search that runs out of node budget
// returns its incumbent with Optimal=false, and the budget is exact — the
// search stops on node budget+1, so assign.nodes reads exactly that. The
// 12-group instance needs about 11k nodes to complete, far above every
// budget in the table.
func TestNodeBudgetFallsBackToGreedy(t *testing.T) {
	b := spec.NewBuilder("budget")
	for i := 0; i < 12; i++ {
		b.Group(fmt.Sprintf("g%02d", i), int64(256<<uint(i%3)), 4+2*(i%7))
	}
	b.Loop("l", 100_000)
	for i := 0; i < 12; i++ {
		b.Read(fmt.Sprintf("g%02d", i), float64(1+i%3))
	}
	s := b.MustBuild()
	tech := memlib.Default()
	run := func(t *testing.T, budget int) (*Assignment, int64) {
		t.Helper()
		o := obs.New()
		sp := o.Start("test")
		a, err := AssignContext(context.Background(), s, nil, tech, 4, Params{NodeBudget: budget, Obs: sp})
		sp.End()
		if err != nil {
			t.Fatal(err)
		}
		return a, o.Counters()["assign.nodes"]
	}
	if a, nodes := run(t, 0); !a.Optimal || nodes <= 1001 {
		t.Fatalf("unbounded search: optimal=%v after %d nodes, want a completed search above 1001 nodes", a.Optimal, nodes)
	}
	for _, budget := range []int{1, 10, 100, 1000} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			a, nodes := run(t, budget)
			if a.Optimal {
				t.Fatal("budget-capped search claims optimality")
			}
			if len(a.OnChip) == 0 {
				t.Fatal("no solution despite greedy incumbent")
			}
			if nodes != int64(budget)+1 {
				t.Fatalf("assign.nodes = %d, want budget+1 = %d", nodes, budget+1)
			}
		})
	}
}

func TestInPlaceSharesStorage(t *testing.T) {
	// Two equal groups with disjoint lifetimes: with in-place mapping one
	// memory holds both in the space of one.
	b := spec.NewBuilder("staged")
	b.Group("early", 4096, 8)
	b.Group("late", 4096, 8)
	b.Loop("phase1", 1000)
	b.Write("early", 1)
	b.Read("early", 1)
	b.Loop("phase2", 1000)
	b.Write("late", 1)
	b.Read("late", 1)
	s := b.MustBuild()
	tech := memlib.Default()

	plain, err := AssignContext(context.Background(), s, nil, tech, 1, Params{})
	if err != nil {
		t.Fatal(err)
	}
	ip, err := AssignContext(context.Background(), s, nil, tech, 1, Params{InPlace: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.OnChip[0].Mem.Words != 8192 {
		t.Fatalf("plain memory words = %d, want 8192", plain.OnChip[0].Mem.Words)
	}
	if ip.OnChip[0].Mem.Words != 4096 {
		t.Fatalf("in-place memory words = %d, want 4096", ip.OnChip[0].Mem.Words)
	}
	if ip.Cost.OnChipArea >= plain.Cost.OnChipArea {
		t.Fatalf("in-place area %.2f not below plain %.2f",
			ip.Cost.OnChipArea, plain.Cost.OnChipArea)
	}
	if ip.Cost.OnChipPower >= plain.Cost.OnChipPower {
		t.Fatalf("in-place power %.2f not below plain %.2f (smaller memory, cheaper accesses)",
			ip.Cost.OnChipPower, plain.Cost.OnChipPower)
	}
}

func TestInPlaceOverlappingLifetimesNoSharing(t *testing.T) {
	// Overlapping lifetimes must not share storage.
	b := spec.NewBuilder("overlap")
	b.Group("x", 2048, 8)
	b.Group("y", 2048, 8)
	b.Loop("l", 1000)
	b.Read("x", 1)
	b.Read("y", 1)
	s := b.MustBuild()
	ip, err := AssignContext(context.Background(), s, nil, memlib.Default(), 1, Params{InPlace: true})
	if err != nil {
		t.Fatal(err)
	}
	if ip.OnChip[0].Mem.Words != 4096 {
		t.Fatalf("overlapping groups shared storage: %d words", ip.OnChip[0].Mem.Words)
	}
}

func TestInPlaceSearchStateRestoration(t *testing.T) {
	// The branch-and-bound must not corrupt live-word profiles across
	// backtracking: results with and without the exact search must agree
	// for a config where greedy is already optimal.
	b := spec.NewBuilder("bt")
	b.Group("a", 1024, 8)
	b.Group("b", 1024, 8)
	b.Group("c", 512, 16)
	b.Loop("p1", 100)
	b.Read("a", 1)
	b.Loop("p2", 100)
	b.Read("b", 1)
	b.Loop("p3", 100)
	b.Read("c", 1)
	s := b.MustBuild()
	full, err := AssignContext(context.Background(), s, nil, memlib.Default(), 2, Params{InPlace: true})
	if err != nil {
		t.Fatal(err)
	}
	// Recompute each memory's words from scratch and compare.
	for _, bind := range full.OnChip {
		var st memState
		pr := buildProblem(s, groupIndices(s, bind.Groups), s.FrameAccesses(), nil, memlib.Default(), Params{InPlace: true, NodeBudget: 1000})
		members := make([]int, len(bind.Groups))
		for i := range members {
			members[i] = i
		}
		st.recompute(pr, members)
		if st.words != bind.Mem.Words {
			t.Fatalf("memory %s words %d inconsistent with recompute %d",
				bind.Mem.Name, bind.Mem.Words, st.words)
		}
	}
}

// groupIndices returns the indices in s.Groups of the named groups.
func groupIndices(s *spec.Spec, names []string) []int {
	var out []int
	for _, n := range names {
		for i := range s.Groups {
			if s.Groups[i].Name == n {
				out = append(out, i)
			}
		}
	}
	return out
}

// bruteForceOnChip enumerates every partition of the on-chip groups into
// exactly maxMem memories and returns the minimal objective, as a reference
// for the branch-and-bound.
func bruteForceOnChip(t *testing.T, s *spec.Spec, pats []sbd.Pattern, tech *memlib.Tech, maxMem int, p Params) (float64, bool) {
	t.Helper()
	p.normalize()
	acc := s.FrameAccesses()
	onG, _ := partition(s, acc, tech)
	if maxMem > len(onG) {
		maxMem = len(onG)
	}
	pr := buildProblem(s, onG, acc, pats, tech, p)
	n := len(onG)
	assignTo := make([]int, n)
	best := -1.0
	found := false
	var rec func(i, used int)
	rec = func(i, used int) {
		if i == n {
			if used != maxMem {
				return
			}
			members := make([][]int, maxMem)
			for gi, m := range assignTo {
				members[m] = append(members[m], gi)
			}
			total := 0.0
			for _, ms := range members {
				var st memState
				st.recompute(pr, ms)
				area, power, err := pr.onChipCost(&st)
				if err != nil {
					return
				}
				total += power + areaWeight*area
			}
			if !found || total < best {
				best, found = total, true
			}
			return
		}
		for m := 0; m <= used && m < maxMem; m++ {
			assignTo[i] = m
			nu := used
			if m == used {
				nu++
			}
			rec(i+1, nu)
		}
	}
	rec(0, 0)
	return best, found
}

func TestBranchAndBoundMatchesBruteForce(t *testing.T) {
	tech := memlib.Default()
	// Several small instances with varied widths, access weights and
	// conflict patterns.
	for seed := 0; seed < 6; seed++ {
		b := spec.NewBuilder("bf")
		widths := []int{20, 4, 8, 12, 16, 2}
		for i, w := range widths {
			b.Group(groupName(i), int64(128<<uint(i%3)), w)
		}
		b.Loop("l", 100_000)
		var ids []int
		for i := range widths {
			ids = append(ids, b.Read(groupName(i), float64(1+(i+seed)%3)))
		}
		_ = ids
		s := b.MustBuild()
		var pats []sbd.Pattern
		if seed%2 == 1 {
			pats = []sbd.Pattern{{
				Access: map[string]int{groupName(seed % 4): 1, groupName((seed + 1) % 4): 1},
				Weight: 1000,
			}}
		}
		for _, mem := range []int{1, 2, 3} {
			want, feasible := bruteForceOnChip(t, s, pats, tech, mem, Params{})
			a, err := AssignContext(context.Background(), s, pats, tech, mem, Params{})
			if !feasible {
				if err == nil {
					t.Fatalf("seed %d mem %d: brute force infeasible but Assign succeeded", seed, mem)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d mem %d: %v", seed, mem, err)
			}
			got := a.Cost.OnChipPower + areaWeight*a.Cost.OnChipArea
			if got > want+1e-6 {
				t.Fatalf("seed %d mem %d: B&B %.4f worse than brute force %.4f",
					seed, mem, got, want)
			}
			if got < want-1e-6 {
				t.Fatalf("seed %d mem %d: B&B %.4f below brute force %.4f (reference broken)",
					seed, mem, got, want)
			}
		}
	}
}

func TestInterconnectMakesPowerMinimumInterior(t *testing.T) {
	// With the bus model enabled, the Table-4 sweep's power must rise again
	// at large allocations — the effect the paper predicts but does not
	// model ("the power consumption will also rise again due to the
	// interconnect-related power").
	b := spec.NewBuilder("sweep")
	widths := []int{20, 20, 16, 12, 10, 8, 8, 6, 4, 2, 14, 18}
	for i, w := range widths {
		b.Group(groupName(i), 512, w)
	}
	b.Loop("l", 1_000_000)
	for i := range widths {
		b.Read(groupName(i), 1)
	}
	s := b.MustBuild()
	tech := memlib.Default().WithInterconnect()

	counts := []int{1, 2, 4, 6, 8, 10, 12}
	as, ok := sweep(t, s, tech, counts)
	minIdx := 0
	for i, a := range as {
		if a.Cost.OnChipPower < as[minIdx].Cost.OnChipPower {
			minIdx = i
		}
	}
	if minIdx == 0 || minIdx == len(as)-1 {
		powers := make([]float64, len(as))
		for i, a := range as {
			powers[i] = a.Cost.OnChipPower
		}
		t.Fatalf("power minimum at boundary (count %d): %v over %v", ok[minIdx], powers, ok)
	}
	// Without the bus model the same sweep is monotone to the end.
	plain, _ := sweep(t, s, memlib.Default(), counts)
	last := len(plain) - 1
	if plain[last].Cost.OnChipPower > plain[0].Cost.OnChipPower {
		t.Fatal("plain sweep should favor many memories")
	}
}

func TestBusModel(t *testing.T) {
	var off memlib.BusModel
	if off.Enabled() {
		t.Fatal("zero bus model enabled")
	}
	if off.Area(5) != 0 || off.Power(5, 1e6) != 0 {
		t.Fatal("zero bus model has cost")
	}
	bus := memlib.Default().WithInterconnect().Bus
	if !bus.Enabled() {
		t.Fatal("WithInterconnect bus disabled")
	}
	if bus.Power(8, 1e6) <= bus.Power(2, 1e6) {
		t.Fatal("bus power not increasing with memory count")
	}
	if bus.Power(0, 1e6) != 0 {
		t.Fatal("bus power with zero memories")
	}
}

func TestBindingNames(t *testing.T) {
	s := mixedSpec(t)
	a, err := AssignContext(context.Background(), s, nil, memlib.Default(), 2, Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range a.OnChip {
		if !strings.HasPrefix(b.Mem.Name, "sram") {
			t.Errorf("on-chip name %q", b.Mem.Name)
		}
	}
	for _, b := range a.OffChip {
		if !strings.Contains(b.Mem.Name, "EDO") {
			t.Errorf("off-chip name %q lacks device", b.Mem.Name)
		}
	}
}
