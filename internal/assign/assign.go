// Package assign implements the memory allocation and signal-to-memory
// assignment step (§4.6), following the published formulation (Slock,
// Wuytack, Catthoor, de Jong, ISSS 1997).
//
// Allocation fixes the number of on-chip memories; assignment maps every
// basic group to one memory such that the conflict patterns produced by the
// storage-cycle-budget distribution remain satisfiable: a memory must have
// at least as many ports as the maximum number of simultaneous accesses its
// member groups ever make in one storage cycle. The optimizer is an exact
// branch-and-bound with a greedy incumbent (the greedy solution doubles as
// the paper's manual-designer baseline); cost models come from memlib.
//
// Bitwidth waste is modeled exactly as the paper describes: a memory is as
// wide as its widest member group, so narrow groups stored with wide ones
// waste the upper bits in both area and access energy.
package assign

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/inplace"
	"repro/internal/memlib"
	"repro/internal/obs"
	"repro/internal/sbd"
	"repro/internal/spec"
)

// cancelCheckInterval is the amortization stride of the cancellation checks
// in the search hot loops: the context is polled once every this many nodes
// (or partitions), so the uncancelled path pays one integer mask per node
// and the deadline is still honored within a fraction of a millisecond.
const cancelCheckInterval = 1024

// maxPorts caps the ports of any single memory: tiny register files
// legitimately take many ports, and the cost model prices them.
const maxPorts = 8

// Params configures the assignment. Within an exploration, core derives it
// from core.EvalParams. The on/off-chip threshold is not a parameter:
// AssignContext reads it from the technology it is given
// (memlib.Tech.OnChipMaxWords), the value core also hands the budget step.
type Params struct {
	// NodeBudget caps branch-and-bound nodes; on exhaustion the best
	// solution found so far (at worst the greedy incumbent) is returned.
	// Default 2e6.
	NodeBudget int
	// InPlace enables the in-place mapping extension: basic groups with
	// disjoint lifetimes assigned to the same memory share storage, so a
	// memory is sized by its peak live words rather than their sum.
	InPlace bool
	// Obs is the parent telemetry span AssignContext attaches its span and
	// search counters to; nil disables instrumentation at near-zero cost.
	Obs *obs.Span
	// Progress, when non-nil, receives live search position (nodes expanded,
	// incumbent cost, root lower bound) for the serving layer's introspection
	// endpoints. The search never reads it back, so results are identical
	// with or without it.
	Progress *obs.Progress
}

func (p *Params) normalize() {
	if p.NodeBudget == 0 {
		p.NodeBudget = 2_000_000
	}
}

// Cost is the memory-organization cost triple the paper's tables report.
type Cost struct {
	OnChipArea   float64 // mm²
	OnChipPower  float64 // mW
	OffChipPower float64 // mW
}

// TotalPower returns on-chip + off-chip power.
func (c Cost) TotalPower() float64 { return c.OnChipPower + c.OffChipPower }

// Binding is one allocated memory with its assigned basic groups.
type Binding struct {
	Mem    memlib.Memory
	Groups []string
	Power  float64 // mW contribution
	Area   float64 // mm² contribution (0 for off-chip)
}

// Assignment is a complete memory organization.
type Assignment struct {
	OnChip   []Binding
	OffChip  []Binding
	GroupMem map[string]string // group -> memory name
	Cost     Cost
	// Optimal is true when the exact search ran to completion: the
	// organization is proven cheapest. It is false when the node budget,
	// a deadline, or a cancellation stopped the search early — the result
	// is then the best incumbent found so far (at worst the greedy
	// first-fit solution), valid but not proven optimal.
	Optimal bool
}

// problem is the shared precomputed state.
type problem struct {
	tech   *memlib.Tech
	p      Params
	groups []spec.BasicGroup // the groups being partitioned
	acc    []uint64          // accesses per frame, per group
	patVec [][]int           // group -> per-pattern multiplicity
	patIdx [][]int           // group -> indices of its nonzero patterns
	patVal [][]int           // group -> multiplicities at those indices
	nPat   int
	nLoops int                // for in-place live-word profiles
	life   []inplace.Interval // per group; valid when p.InPlace
}

// buildProblem precomputes the search state of the groups of s at the
// given indices; acc holds every group's accesses per frame, indexed like
// s.Groups.
func buildProblem(s *spec.Spec, idx []int, acc []uint64, pats []sbd.Pattern, tech *memlib.Tech, p Params) *problem {
	groups := make([]spec.BasicGroup, len(idx))
	pr := &problem{tech: tech, p: p, groups: groups, nPat: len(pats), nLoops: len(s.Loops)}
	pr.acc = make([]uint64, len(groups))
	pr.patVec = make([][]int, len(groups))
	pr.patIdx = make([][]int, len(groups))
	pr.patVal = make([][]int, len(groups))
	var lifetimes map[string]inplace.Interval
	if p.InPlace {
		lifetimes = inplace.Lifetimes(s)
		pr.life = make([]inplace.Interval, len(groups))
	}
	// One flat multiplicity matrix plus one flat nonzero store back every
	// group's columns: three allocations total instead of three per group.
	vecs := make([]int, len(groups)*len(pats))
	nz := 0
	for gi, si := range idx {
		g := s.Groups[si]
		groups[gi] = g
		pr.acc[gi] = acc[si]
		vec := vecs[gi*len(pats) : (gi+1)*len(pats) : (gi+1)*len(pats)]
		for pi, pt := range pats {
			vec[pi] = pt.Access[g.Name]
			if vec[pi] != 0 {
				nz++
			}
		}
		pr.patVec[gi] = vec
		if p.InPlace {
			pr.life[gi] = lifetimes[g.Name]
		}
	}
	idxBuf := make([]int, 0, nz)
	valBuf := make([]int, 0, nz)
	for gi := range groups {
		start := len(idxBuf)
		for pi, v := range pr.patVec[gi] {
			if v != 0 {
				idxBuf = append(idxBuf, pi)
				valBuf = append(valBuf, v)
			}
		}
		pr.patIdx[gi] = idxBuf[start:len(idxBuf):len(idxBuf)]
		pr.patVal[gi] = valBuf[start:len(valBuf):len(valBuf)]
	}
	return pr
}

// selfPorts returns the minimum port count any memory holding group gi can
// have: the group's own worst same-cycle multiplicity.
func (pr *problem) selfPorts(gi int) int {
	k := 1
	for _, v := range pr.patVal[gi] {
		if v > k {
			k = v
		}
	}
	return k
}

// memState tracks one memory's member aggregate during search.
type memState struct {
	words   int64
	bits    int
	acc     uint64
	vec     []int // per-pattern multiplicity sum
	ports   int
	nGroups int
	live    []int64 // per-loop live words (in-place mode only)
}

// reset clears the aggregate for reuse, keeping the vec/live backing — the
// allocation-free counterpart of `*m = memState{}`.
func (m *memState) reset() {
	clear(m.vec)
	clear(m.live)
	m.words, m.bits, m.ports, m.acc, m.nGroups = 0, 0, 0, 0, 0
}

// newMemStates allocates the per-search memory aggregates as one block —
// a single memState array, one flat multiplicity matrix and (in in-place
// mode) one flat live-words matrix — instead of two to three heap objects
// per memory. The full slice expressions keep neighbouring rows from
// bleeding into each other under append.
func newMemStates(pr *problem, maxMem int) []*memState {
	mems := make([]*memState, maxMem)
	states := make([]memState, maxMem)
	vecs := make([]int, maxMem*pr.nPat)
	var lives []int64
	if pr.p.InPlace {
		lives = make([]int64, maxMem*pr.nLoops)
	}
	for i := range mems {
		states[i].vec = vecs[i*pr.nPat : (i+1)*pr.nPat : (i+1)*pr.nPat]
		if lives != nil {
			states[i].live = lives[i*pr.nLoops : (i+1)*pr.nLoops : (i+1)*pr.nLoops]
		}
		mems[i] = &states[i]
	}
	return mems
}

// memUndo captures the scalar fields of a memState before one push. The
// vector fields (vec, live) are additive, so pop reverses them by
// subtraction; the scalars are running maxima and must be restored.
type memUndo struct {
	words   int64
	bits    int
	ports   int
	acc     uint64
	nGroups int
}

// push adds group gi to the memory in place and returns the undo record.
// Together with pop it makes node evaluation incremental: the search
// mutates one aggregate per candidate instead of copying and rebuilding
// the member state at every node.
func (m *memState) push(pr *problem, gi int) memUndo {
	u := memUndo{words: m.words, bits: m.bits, ports: m.ports, acc: m.acc, nGroups: m.nGroups}
	g := pr.groups[gi]
	if pr.p.InPlace {
		if m.live == nil {
			m.live = make([]int64, pr.nLoops)
		}
		iv := pr.life[gi]
		peak := int64(0)
		for li := iv.First; li <= iv.Last && li < pr.nLoops; li++ {
			m.live[li] += g.Words
			if m.live[li] > peak {
				peak = m.live[li]
			}
		}
		if peak > m.words {
			m.words = peak
		}
	} else {
		m.words += g.Words
	}
	if g.Bits > m.bits {
		m.bits = g.Bits
	}
	m.acc += pr.acc[gi]
	if m.vec == nil {
		m.vec = make([]int, pr.nPat)
	}
	ports := m.ports
	idx, val := pr.patIdx[gi], pr.patVal[gi]
	for i, pi := range idx {
		m.vec[pi] += val[i]
		if m.vec[pi] > ports {
			ports = m.vec[pi]
		}
	}
	if ports < 1 {
		ports = 1
	}
	m.ports = ports
	m.nGroups++
	return u
}

// pop removes group gi again, restoring the state push saved.
func (m *memState) pop(pr *problem, gi int, u memUndo) {
	idx, val := pr.patIdx[gi], pr.patVal[gi]
	for i, pi := range idx {
		m.vec[pi] -= val[i]
	}
	if pr.p.InPlace {
		g := pr.groups[gi]
		iv := pr.life[gi]
		for li := iv.First; li <= iv.Last && li < pr.nLoops; li++ {
			m.live[li] -= g.Words
		}
	}
	m.words, m.bits, m.ports, m.acc, m.nGroups = u.words, u.bits, u.ports, u.acc, u.nGroups
}

// recompute rebuilds the aggregate from scratch for the given member set:
// the off-chip partition scan and the final bindings price whole member
// lists this way.
func (m *memState) recompute(pr *problem, members []int) {
	m.reset()
	for _, gi := range members {
		m.push(pr, gi)
	}
}

// onChipCost prices one on-chip memory state.
func (pr *problem) onChipCost(m *memState) (area, power float64, err error) {
	if m.nGroups == 0 {
		return 0, 0, nil
	}
	if m.ports > maxPorts {
		return 0, 0, fmt.Errorf("assign: memory needs %d ports (max %d)", m.ports, maxPorts)
	}
	if m.words > pr.tech.SRAM.MaxWords {
		return 0, 0, fmt.Errorf("assign: on-chip memory of %d words exceeds generator limit", m.words)
	}
	ports := m.ports
	if ports < 1 {
		ports = 1
	}
	area = pr.tech.SRAM.Area(m.words, m.bits, ports)
	rate := float64(m.acc) / pr.tech.FramePeriod
	power = pr.tech.SRAM.Power(m.words, m.bits, ports, rate)
	return area, power, nil
}

// offChipCost prices one off-chip memory state.
func (pr *problem) offChipCost(m *memState) (power float64, err error) {
	if m.nGroups == 0 {
		return 0, nil
	}
	ports := m.ports
	if ports < 1 {
		ports = 1
	}
	if ports > maxPorts {
		return 0, fmt.Errorf("assign: off-chip memory needs %d ports (max %d)", ports, maxPorts)
	}
	return pr.tech.DRAM.Power(m.words, memlib.CatalogWidth(m.bits), ports,
		float64(m.acc)/pr.tech.FramePeriod)
}

// partition splits the indices of the spec's accessed groups (acc holds
// their accesses per frame) by the technology's on/off-chip threshold.
func partition(s *spec.Spec, acc []uint64, tech *memlib.Tech) (on, off []int) {
	limit := tech.OnChipLimit()
	for i := range s.Groups {
		if acc[i] == 0 {
			continue // pruned away: never accessed
		}
		if s.Groups[i].Words > limit {
			off = append(off, i)
		} else {
			on = append(on, i)
		}
	}
	return on, off
}

// AssignContext computes a full memory organization with the given number
// of on-chip memories. Off-chip groups are packed into catalog devices by
// exhaustive partition search (there are only a few large groups).
//
// The search is *anytime*: when ctx expires or is canceled, the best
// incumbent found so far is returned (the greedy first-fit incumbent
// guarantees one exists for every feasible problem) with Optimal=false,
// never an error. Cancellation is polled every cancelCheckInterval search
// nodes, so an uncancellable context costs nothing in the hot loop.
func AssignContext(ctx context.Context, s *spec.Spec, pats []sbd.Pattern, tech *memlib.Tech, onChipCount int, p Params) (*Assignment, error) {
	a, _, err := assignWith(ctx, s, pats, tech, onChipCount, p, true)
	return a, err
}

// assignWith is AssignContext, returning the on-chip search's effort too;
// tight=false switches the width-waste term and the twin rule off
// (branchAndBound), the reference they are tested against.
func assignWith(ctx context.Context, s *spec.Spec, pats []sbd.Pattern, tech *memlib.Tech, onChipCount int, p Params, tight bool) (*Assignment, searchStats, error) {
	p.normalize()
	if onChipCount < 1 {
		return nil, searchStats{}, fmt.Errorf("assign: on-chip count %d out of range", onChipCount)
	}
	sp := p.Obs.Child("assign")
	defer sp.End()
	p.Progress.SetStage("assign")
	acc := s.FrameAccesses()
	onG, offG := partition(s, acc, tech)
	sp.SetInt("count", int64(onChipCount))
	sp.SetInt("groups_onchip", int64(len(onG)))
	sp.SetInt("groups_offchip", int64(len(offG)))
	a := &Assignment{GroupMem: make(map[string]string)}

	// Off-chip: exhaustive partition search over the (few) large groups.
	offPr := buildProblem(s, offG, acc, pats, tech, p)
	offBind, offPower, offOptimal, err := bestOffChip(ctx, offPr, sp)
	if err != nil {
		return nil, searchStats{}, err
	}
	a.OffChip = offBind
	a.Cost.OffChipPower = offPower

	// On-chip: branch and bound.
	onPr := buildProblem(s, onG, acc, pats, tech, p)
	bind, area, power, onOptimal, st, err := branchAndBound(ctx, onPr, onChipCount, sp, tight)
	if err != nil {
		return nil, st, err
	}
	a.OnChip = bind
	a.Cost.OnChipArea = area
	a.Cost.OnChipPower = power
	a.Optimal = onOptimal && offOptimal
	if o := sp.Observer(); o != nil {
		o.Counter(obs.Label("assign.result", "optimal", strconv.FormatBool(a.Optimal))).Add(1)
	}

	// Interconnect extension: its cost depends only on the allocation size
	// and the total on-chip traffic, so it is added after the search rather
	// than inside the assignment objective.
	if tech.Bus.Enabled() {
		var onAcc uint64
		for _, si := range onG {
			onAcc += acc[si]
		}
		n := len(a.OnChip)
		a.Cost.OnChipArea += tech.Bus.Area(n)
		a.Cost.OnChipPower += tech.Bus.Power(n, float64(onAcc)/tech.FramePeriod)
	}

	for _, b := range a.OnChip {
		for _, g := range b.Groups {
			a.GroupMem[g] = b.Mem.Name
		}
	}
	for _, b := range a.OffChip {
		for _, g := range b.Groups {
			a.GroupMem[g] = b.Mem.Name
		}
	}
	return a, st, nil
}

// bestOffChip searches all set partitions of the off-chip groups (at most a
// handful) for the cheapest feasible device packing. When ctx is done, the
// search stops at the best feasible packing found so far (it keeps running
// until one exists, so a feasible problem always yields a result) and the
// returned optimal flag is false.
func bestOffChip(ctx context.Context, pr *problem, sp *obs.Span) ([]Binding, float64, bool, error) {
	n := len(pr.groups)
	if n == 0 {
		return nil, 0, true, nil
	}
	if n > 8 {
		return nil, 0, false, fmt.Errorf("assign: %d off-chip groups exceed the partition-search limit", n)
	}
	bestPower := math.Inf(1)
	var bestParts [][]int
	partitions := 0
	done := ctx.Done()
	cancelChecks := 0
	stopped := false
	assignTo := make([]int, n)
	var rec func(i, used int)
	rec = func(i, used int) {
		if stopped {
			return
		}
		if i == n {
			partitions++
			if done != nil && partitions%cancelCheckInterval == 0 && bestParts != nil {
				cancelChecks++
				select {
				case <-done:
					stopped = true
					return
				default:
				}
			}
			parts, total, feasible := pr.partitionPower(assignTo[:n], used)
			if !feasible {
				return
			}
			if total < bestPower {
				bestPower = total
				bestParts = make([][]int, len(parts))
				for i := range parts {
					bestParts[i] = append([]int(nil), parts[i]...)
				}
			}
			return
		}
		for m := 0; m <= used && m < n; m++ {
			assignTo[i] = m
			nu := used
			if m == used {
				nu++
			}
			rec(i+1, nu)
		}
	}
	rec(0, 0)
	sp.SetInt("offchip_partitions", int64(partitions))
	if o := sp.Observer(); o != nil && cancelChecks > 0 {
		o.Counter("assign.cancel_points").Add(int64(cancelChecks))
		if stopped {
			o.Counter("assign.deadline_fallbacks").Add(1)
		}
	}
	if math.IsInf(bestPower, 1) {
		return nil, 0, false, fmt.Errorf("assign: no feasible off-chip packing (port demand exceeds %d)", maxPorts)
	}
	binds, err := offChipBinds(pr, bestParts)
	if err != nil {
		return nil, 0, false, err
	}
	return binds, bestPower, !stopped, nil
}

// partitionPower prices one complete partition (assignTo maps each group to
// a memory in [0,used)), returning the member lists and total power.
// feasible is false when any part's port demand exceeds the cap.
func (pr *problem) partitionPower(assignTo []int, used int) (parts [][]int, total float64, feasible bool) {
	parts = make([][]int, used)
	for gi, m := range assignTo {
		parts[m] = append(parts[m], gi)
	}
	var st memState
	for _, members := range parts {
		st.recompute(pr, members)
		pw, err := pr.offChipCost(&st)
		if err != nil {
			return nil, 0, false
		}
		total += pw
	}
	return parts, total, true
}

// offChipBinds materializes the winning off-chip partition into catalog
// device bindings.
func offChipBinds(pr *problem, bestParts [][]int) ([]Binding, error) {
	var binds []Binding
	for i, members := range bestParts {
		var st memState
		st.recompute(pr, members)
		pw, err := pr.offChipCost(&st)
		if err != nil {
			return nil, err
		}
		entry, err := pr.tech.DRAM.Select(st.words, memlib.CatalogWidth(st.bits))
		if err != nil {
			return nil, err
		}
		ports := st.ports
		if ports < 1 {
			ports = 1
		}
		b := Binding{
			Mem: memlib.Memory{
				Name:  fmt.Sprintf("offchip%d(%s)", i, entry.Name),
				Kind:  memlib.OffChip,
				Words: st.words,
				Bits:  memlib.CatalogWidth(st.bits),
				Ports: ports,
			},
			Power: pw,
		}
		for _, gi := range members {
			b.Groups = append(b.Groups, pr.groups[gi].Name)
		}
		sort.Strings(b.Groups)
		binds = append(binds, b)
	}
	return binds, nil
}

// areaWeight is the mm²-to-mW exchange rate of the assignment objective:
// the optimizer minimizes power + areaWeight·area. Power carries the larger
// weight, as in the paper's low-power-oriented tool; the reports keep the
// components separate.
const areaWeight = 0.3

// boundSlack is the relative margin by which the peripheral-area and
// width-waste bounds must clear the incumbent before they prune: far above
// the rounding of the float sums they are compared across (a few ulps per
// term), far below any real cost difference.
const boundSlack = 1e-12

// bbPre is the search-independent precomputation of the branch-and-bound:
// the decision order, the admissible lower-bound tail sums, the
// per-empty-memory bound term, the peripheral-area and width-waste bounds'
// inputs, and the twin rule's links.
type bbPre struct {
	order     []int     // decision order: group indices, decreasing weight
	lbTail    []float64 // lbTail[i]: lower bound of groups order[i:]
	emptyTerm float64   // bound contribution of each still-empty memory
	sizeTail  []float64 // sizeTail[i]: Σ words·bits of groups order[i:]
	periph    float64   // areaWeight·PeriphArea; 0 in in-place mode (no bound)
	// waste[i] prices the width waste of group order[i]; nil in in-place
	// mode, or when the search runs without it (no bound).
	waste []wasteTerm
	// twin[i] is the step of the nearest earlier twin of group order[i], or
	// -1; nil when no group has a twin, or the search runs without the rule.
	twin []int
}

// wasteTerm is one group's input to the width-waste bound: a memory of
// width w > bits holding the group costs at least coef·(w − bits) beyond
// the group's floor.
type wasteTerm struct {
	coef float64 // areaWeight·CellArea·words·portF, portF from selfPorts
	bits int
}

// bbPrecompute builds the precomputation; tight=false leaves out the
// width-waste term and the twin rule.
//
// Groups are ordered by decreasing weight (accesses × width): decide the
// expensive groups first for stronger pruning.
//
// The per-group optimistic marginal cost is the admissible lower bound of
// the search: whatever memory ends up holding a group is at least as large
// as the group itself, at least as wide, and has at least as many ports
// as the group's own worst same-cycle multiplicity forces (selfPorts).
// Energy and area are monotone in all three, so pricing the group at
// exactly its own size/width/self-ports underestimates every real
// placement. The dedicated-cell area term is dropped in in-place mode:
// members with disjoint lifetimes share storage there, so a memory's
// cells are not the sum of its members' — only the power floor remains
// admissible.
//
// The peripheral area adds a second, node-dependent term. A memory's area
// is (FixedArea + CellArea·x + PeriphArea·√x)·portF with x = words·bits and
// portF >= 1 never falling as members join, so adding members that raise x
// by Δ adds at least PeriphArea·(√(x+Δ) − √x) on top of the cell-area and
// energy floors lbTail already holds and the fixed area emptyTerm holds.
// Outside in-place mode placing the remaining groups raises the memories'
// Σx by at least R = Σ words·bits over them (a member's words add whole and
// the width only grows). √(x+Δ) − √x is concave in Δ and falls as x grows,
// so however the Δs split, their sum of increments is at least √(Xmax+R) −
// √Xmax, with Xmax the largest x of any current memory (an empty one counts
// as 0). sizeTail holds R per decision step.
//
// The width waste adds a third term once no memory is empty. Then every
// remaining group g joins a current memory, whose width is at least bmin,
// the narrowest current width, and never falls as members join. So g ends
// in a memory of final width B >= max(b_g, bmin), final word count W and
// port factor P >= portF_g, whose cells grow from W_c·B_c·P_c (the current
// members') to W·B·P. With W − W_c the words of the joining groups (outside
// in-place mode they add whole), B >= B_c and P >= P_c, that growth is at
// least (W − W_c)·B·P >= Σ over the joining g of words_g·max(b_g, bmin)·
// portF_g. lbTail prices words_g·b_g·portF_g of it, so each g adds at least
// CellArea·words_g·(bmin − b_g)⁺·portF_g more cell area. The term is the
// cell part of the area and the peripheral term its √ part, so the two add
// without counting anything twice. In-place mode skips it with the cell
// floor.
//
// The twin rule removes mirrors. Groups a and b are twins when swapping
// them maps the problem onto itself (twins): equal words, width, accesses
// per frame and, in in-place mode, lifetime, and a pattern set the swap
// permutes. A memory's price depends only on its words (or live words),
// width, accesses and ports, the largest per-pattern sum of its members'
// multiplicities, so swapping the memories of two twins keeps the cost of
// every solution; so does any permutation of a twin class, since the
// transpositions generate them all. Take any optimum and, among its images
// under twin permutations and memory relabelings, the lexicographically
// smallest string of memory indices in decision order whose memories open
// left to right (the search's other symmetry rule). Suppose twins a before
// b had memory(a) > memory(b). Memories open left to right, so memory(b)
// opened before memory(a) did, before a's step. Swapping the two twins
// keeps the string before a, puts the already open memory(b) at a, and
// relabeling the memories to open left to right again keeps that prefix:
// a smaller image, a contradiction. So the smallest image gives every later
// twin a memory index at least its earlier twin's, and a search restricted
// to such strings keeps an optimum. Only the answer's cost is kept
// exactly: where mirrors tie, the restricted search may reach the other
// one first.
func (pr *problem) bbPrecompute(tight bool) bbPre {
	n := len(pr.groups)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		wa := float64(pr.acc[order[a]]) * float64(pr.groups[order[a]].Bits)
		wb := float64(pr.acc[order[b]]) * float64(pr.groups[order[b]].Bits)
		return wa > wb
	})

	lbTail := make([]float64, n+1)
	portF := func(gi int) float64 { return 1 + pr.tech.SRAM.PortArea*float64(pr.selfPorts(gi)-1) }
	lbOf := func(gi int) float64 {
		g := pr.groups[gi]
		e := pr.tech.SRAM.EnergyPerAccess(g.Words, g.Bits, pr.selfPorts(gi))
		v := e * (float64(pr.acc[gi]) / pr.tech.FramePeriod) * 1e-6 // nJ × 1/s → mW
		if !pr.p.InPlace {
			v += areaWeight * pr.tech.SRAM.CellArea * float64(g.BitSize()) * portF(gi)
		}
		return v
	}
	sizeTail := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		lbTail[i] = lbTail[i+1] + lbOf(order[i])
		sizeTail[i] = sizeTail[i+1] + float64(pr.groups[order[i]].BitSize())
	}
	// Every still-empty memory must end up used (mustOpen enforces it), and
	// its future members pay its instance overhead on top of their floors.
	emptyTerm := pr.tech.SRAM.StaticPower + areaWeight*pr.tech.SRAM.FixedArea
	pre := bbPre{order: order, lbTail: lbTail, emptyTerm: emptyTerm, sizeTail: sizeTail}
	if !pr.p.InPlace {
		pre.periph = areaWeight * pr.tech.SRAM.PeriphArea
	}
	if !tight {
		return pre
	}
	if !pr.p.InPlace {
		pre.waste = make([]wasteTerm, n)
		for i, gi := range order {
			g := pr.groups[gi]
			pre.waste[i] = wasteTerm{areaWeight * pr.tech.SRAM.CellArea * float64(g.Words) * portF(gi), g.Bits}
		}
	}
	pre.twin = pr.twins(order)
	return pre
}

// wasteFrom is the width-waste bound of the groups order[step:] when no
// memory is empty (bbPrecompute).
func (pre *bbPre) wasteFrom(step int, mems []*memState) float64 {
	bmin := mems[0].bits
	for _, m := range mems[1:] {
		bmin = min(bmin, m.bits)
	}
	w := 0.0
	for _, t := range pre.waste[step:] {
		if t.bits < bmin {
			w += t.coef * float64(bmin-t.bits)
		}
	}
	return w
}

// twins links every group to its nearest earlier twin in the decision
// order: twin[i] is that twin's step, or -1. Two groups are twins when
// they have equal words, width, accesses per frame and (in in-place mode)
// lifetime, and swapping them maps the pattern set onto itself: every
// pattern in which their multiplicities differ has its swapped image among
// the patterns. A group's pattern columns need not match its twin's, so
// single-access patterns {a:k} and {b:k} are each other's images. It
// returns nil when no group has a twin.
func (pr *problem) twins(order []int) []int {
	var twin []int
	for i, a := range order {
		for j := i - 1; j >= 0; j-- {
			b := order[j]
			ga, gb := pr.groups[a], pr.groups[b]
			if ga.Words != gb.Words || ga.Bits != gb.Bits || pr.acc[a] != pr.acc[b] ||
				pr.p.InPlace && pr.life[a] != pr.life[b] {
				continue
			}
			swapped := true
			for p := 0; p < pr.nPat && swapped; p++ {
				swapped = pr.patVec[a][p] == pr.patVec[b][p] || pr.hasSwapImage(p, a, b)
			}
			if !swapped {
				continue
			}
			if twin == nil {
				twin = make([]int, len(order))
				for k := range twin {
					twin[k] = -1
				}
			}
			twin[i] = j
			break
		}
	}
	return twin
}

// hasSwapImage reports whether some pattern q is pattern p with the
// multiplicities of groups a and b swapped. The image holds b's
// multiplicity at a and a's at b, and the two differ, so one of them is
// nonzero: q is among that group's nonzero patterns.
func (pr *problem) hasSwapImage(p, a, b int) bool {
	cands := pr.patIdx[a]
	if pr.patVec[b][p] == 0 {
		cands = pr.patIdx[b]
	}
	for _, q := range cands {
		image := true
		for gi := 0; gi < len(pr.groups) && image; gi++ {
			src := gi
			switch gi {
			case a:
				src = b
			case b:
				src = a
			}
			image = pr.patVec[gi][q] == pr.patVec[src][p]
		}
		if image {
			return true
		}
	}
	return false
}

// greedyIncumbent runs the greedy first-fit assignment: each group (in
// decision order) goes to the memory with the minimal marginal cost, forced
// to leave room so every allocated memory ends up used. It returns the
// assignment (group index -> memory) and its cost; ok is false when greedy
// finds no feasible placement.
func greedyIncumbent(pr *problem, maxMem int, pre *bbPre) (assign []int, cost float64, ok bool) {
	n := len(pr.groups)
	mems := newMemStates(pr, maxMem)
	memCost := make([]float64, maxMem)
	var curCost float64
	emptyCnt := maxMem
	curAssign := make([]int, n)
	for step, gi := range pre.order {
		remaining := n - step
		mustOpen := remaining <= emptyCnt
		bestM, bestDelta := -1, math.Inf(1)
		for m := 0; m < maxMem; m++ {
			if mems[m].nGroups == 0 && m > 0 && mems[m-1].nGroups == 0 {
				break // symmetry: only the first empty memory matters
			}
			if mustOpen && mems[m].nGroups > 0 {
				continue
			}
			u := mems[m].push(pr, gi)
			area, power, err := pr.onChipCost(mems[m])
			delta := power + areaWeight*area - memCost[m]
			mems[m].pop(pr, gi, u)
			if err == nil && delta < bestDelta {
				bestM, bestDelta = m, delta
			}
		}
		if bestM < 0 {
			return nil, 0, false
		}
		if mems[bestM].nGroups == 0 {
			emptyCnt--
		}
		mems[bestM].push(pr, gi)
		a, p2, _ := pr.onChipCost(mems[bestM])
		curCost += p2 + areaWeight*a - memCost[bestM]
		memCost[bestM] = p2 + areaWeight*a
		curAssign[gi] = bestM
	}
	return curAssign, curCost, true
}

// searchStats is one branch-and-bound's effort, emitted as the assign.*
// counters when the search ends.
type searchStats struct {
	nodes       int // assign.nodes
	pruned      int // assign.pruned_bound: subtrees cut by a bound or the twin rule
	wastePruned int // of pruned: cut only once the width-waste term was added
	twinSkipped int // of pruned: children the twin rule skipped
	portRejects int // assign.port_rejections
}

// branchAndBound finds the cheapest assignment of pr.groups into exactly
// maxMem on-chip memories (clamped to the group count: the designer
// allocated them, the tool uses them — Table 4's sweep axis).
//
// The search is anytime: the greedy first-fit incumbent is computed before
// the exact search starts, so when ctx is already done the exact search is
// skipped entirely, and when ctx expires mid-search (polled every
// cancelCheckInterval nodes) the best incumbent found so far is returned.
// Both cases report optimal=false, and so does a search that runs out of
// node budget: it stops on node NodeBudget+1, which it counts but does not
// expand.
//
// Two symmetry rules keep the search off equivalent branches: memories
// open left to right (a group may take only the first still-empty
// memory), and a group with an earlier twin takes no memory below that
// twin's (bbPrecompute).
//
// A node is pruned when its bound reaches the incumbent's cost. The bound
// is curCost plus the groups' floors and the empty memories' overhead, and
// then, as a second test, plus the peripheral-area term and, once no memory
// is empty, the width-waste term (bbPrecompute), which must clear the
// incumbent by the relative boundSlack. Every term is admissible, so a
// pruned subtree holds no leaf strictly cheaper than the incumbent at that
// point: without the twin rule, the incumbent sequence, and so the answer
// of a search that completes, is the one the first test alone gives, from
// a subset of its nodes. That needs a leaf's float cost to depend on its
// path alone, which is why curCost is restored rather than decremented on
// the way back: a running sum that drifts with every visited node would let
// a pruned subtree move which of two equal-cost leaves compares cheaper.
// With the twin rule the answer is the same one or, where mirrors tie
// exactly, its mirror at the same cost. tight=false runs the search without
// the width-waste term and the twin rule.
func branchAndBound(ctx context.Context, pr *problem, maxMem int, sp *obs.Span, tight bool) ([]Binding, float64, float64, bool, searchStats, error) {
	var st searchStats
	n := len(pr.groups)
	if n == 0 {
		return nil, 0, 0, true, st, nil
	}
	if maxMem > n {
		maxMem = n
	}
	pre := pr.bbPrecompute(tight)
	order, lbTail, emptyTerm := pre.order, pre.lbTail, pre.emptyTerm
	prog := pr.p.Progress
	prog.SetBound(lbTail[0] + float64(maxMem)*pre.emptyTerm)

	mems := newMemStates(pr, maxMem)
	memCost := make([]float64, maxMem) // area+power of each memory
	var curCost float64
	emptyCnt := maxMem // memories with no member yet, maintained incrementally

	bestCost := math.Inf(1)
	bestAssign := make([]int, n) // group index -> memory
	curAssign := make([]int, n)

	if gAssign, gCost, ok := greedyIncumbent(pr, maxMem, &pre); ok {
		bestCost = gCost
		copy(bestAssign, gAssign)
		prog.SetIncumbent(gCost)
	}

	// The search-effort counters in st are plain fields inside the hot
	// loop, emitted once at the end so the instrumented search runs at full
	// speed.
	exhausted := false
	stopped := false // ctx deadline/cancellation hit (vs. node-budget exhaustion)
	done := ctx.Done()
	cancelChecks := 0
	if done != nil {
		// Entry check: an already-expired context skips the exact search
		// entirely and returns the greedy incumbent.
		cancelChecks++
		select {
		case <-done:
			stopped = true
		default:
		}
	}
	// xmax is the largest words·bits of any memory on the current path.
	var dfs func(step int, xmax float64)
	dfs = func(step int, xmax float64) {
		if exhausted || stopped {
			return
		}
		st.nodes++
		if st.nodes > pr.p.NodeBudget {
			exhausted = true
			return
		}
		if st.nodes%cancelCheckInterval == 0 {
			prog.AddNodes(cancelCheckInterval)
			if done != nil {
				cancelChecks++
				select {
				case <-done:
					stopped = true
					return
				default:
				}
			}
		}
		if step == n {
			if curCost < bestCost {
				bestCost = curCost
				copy(bestAssign, curAssign)
				prog.SetIncumbent(bestCost)
			}
			return
		}
		v := curCost + lbTail[step] + float64(emptyCnt)*emptyTerm
		if v >= bestCost {
			st.pruned++
			return
		}
		if pre.periph > 0 {
			v += pre.periph * (math.Sqrt(xmax+pre.sizeTail[step]) - math.Sqrt(xmax))
			limit := bestCost * (1 + boundSlack)
			if v >= limit {
				st.pruned++
				return
			}
			if emptyCnt == 0 && pre.waste != nil && v+pre.wasteFrom(step, mems) >= limit {
				st.pruned++
				st.wastePruned++
				return
			}
		}
		gi := order[step]
		mustOpen := n-step <= emptyCnt
		lo := 0
		if pre.twin != nil && pre.twin[step] >= 0 {
			lo = curAssign[order[pre.twin[step]]]
			if !mustOpen {
				st.pruned += lo
				st.twinSkipped += lo
			}
		}
		for m := lo; m < maxMem; m++ {
			if mems[m].nGroups == 0 && m > 0 && mems[m-1].nGroups == 0 {
				break // symmetry breaking: open memories left to right
			}
			if mustOpen && mems[m].nGroups > 0 {
				continue // every allocated memory must end up used
			}
			wasEmpty := mems[m].nGroups == 0
			u := mems[m].push(pr, gi)
			area, power, err := pr.onChipCost(mems[m])
			if err == nil {
				if wasEmpty {
					emptyCnt--
				}
				// Restored, not decremented, on the way back (see above).
				oldCost, parentCost := memCost[m], curCost
				memCost[m] = power + areaWeight*area
				curCost += memCost[m] - oldCost
				curAssign[gi] = m
				dfs(step+1, max(xmax, float64(mems[m].words)*float64(mems[m].bits)))
				curCost = parentCost
				memCost[m] = oldCost
				if wasEmpty {
					emptyCnt++
				}
			} else {
				st.portRejects++
			}
			mems[m].pop(pr, gi, u)
		}
	}
	if !stopped {
		dfs(0, 0)
	}
	prog.AddNodes(int64(st.nodes % cancelCheckInterval))
	if sp != nil {
		sp.SetInt("nodes", int64(st.nodes))
		sp.SetInt("pruned_bound", int64(st.pruned))
		sp.SetInt("port_rejections", int64(st.portRejects))
		opt := int64(1)
		if exhausted || stopped {
			opt = 0
		}
		sp.SetInt("optimal", opt)
		o := sp.Observer()
		o.Counter("assign.nodes").Add(int64(st.nodes))
		o.Counter("assign.pruned_bound").Add(int64(st.pruned))
		o.Counter("assign.port_rejections").Add(int64(st.portRejects))
		if cancelChecks > 0 {
			o.Counter("assign.cancel_points").Add(int64(cancelChecks))
		}
		if stopped {
			o.Counter("assign.deadline_fallbacks").Add(1)
		}
	}
	if math.IsInf(bestCost, 1) {
		return nil, 0, 0, false, st, fmt.Errorf(
			"assign: no feasible on-chip assignment with %d memories (conflicts demand more)", maxMem)
	}

	binds, totalArea, totalPower, err := materializeOnChip(pr, maxMem, bestAssign)
	if err != nil {
		return nil, 0, 0, false, st, err
	}
	return binds, totalArea, totalPower, !exhausted && !stopped, st, nil
}

// materializeOnChip turns the winning assignment vector into memory
// bindings, re-deriving each memory's aggregate and price from scratch.
func materializeOnChip(pr *problem, maxMem int, bestAssign []int) ([]Binding, float64, float64, error) {
	finalMembers := make([][]int, maxMem)
	for gi, m := range bestAssign {
		finalMembers[m] = append(finalMembers[m], gi)
	}
	binds := make([]Binding, 0, maxMem)
	var totalArea, totalPower float64
	var st memState
	idx := 0
	for m := 0; m < maxMem; m++ {
		if len(finalMembers[m]) == 0 {
			continue
		}
		st.recompute(pr, finalMembers[m])
		area, power, err := pr.onChipCost(&st)
		if err != nil {
			return nil, 0, 0, err
		}
		ports := st.ports
		if ports < 1 {
			ports = 1
		}
		b := Binding{
			Mem: memlib.Memory{
				Name:  fmt.Sprintf("sram%d", idx),
				Kind:  memlib.OnChip,
				Words: st.words,
				Bits:  st.bits,
				Ports: ports,
			},
			Area:  area,
			Power: power,
		}
		for _, gi := range finalMembers[m] {
			b.Groups = append(b.Groups, pr.groups[gi].Name)
		}
		sort.Strings(b.Groups)
		binds = append(binds, b)
		totalArea += area
		totalPower += power
		idx++
	}
	return binds, totalArea, totalPower, nil
}

// Greedy returns the greedy-only assignment (the baseline a designer
// without the optimizing tool would reach by first-fit reasoning).
func Greedy(s *spec.Spec, pats []sbd.Pattern, tech *memlib.Tech, onChipCount int, p Params) (*Assignment, error) {
	p.NodeBudget = 1 // force the search to stop immediately after greedy
	a, err := AssignContext(context.Background(), s, pats, tech, onChipCount, p)
	if err != nil {
		return nil, err
	}
	a.Optimal = false
	return a, nil
}
