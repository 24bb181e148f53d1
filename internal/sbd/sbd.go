// Package sbd implements the storage cycle budget distribution step (§4.5):
// deciding, for every loop body, in which storage cycle each memory access
// executes, such that the real-time cycle budget is met with the cheapest
// possible memory bandwidth.
//
// The package follows the published flow-graph balancing technique
// (Wuytack et al., "Minimizing the required memory bandwidth in VLSI system
// realizations") extended — as the paper's prototype tool was — to loops:
//
//   - Within one loop body, every access gets a cycle inside its ASAP/ALAP
//     window. Accesses to large (off-chip) arrays occupy several cycles.
//     Accesses that overlap in time create conflicts: same-group overlaps
//     force multiport memories, cross-group overlaps force the groups into
//     different memories (or more ports). Balancing searches for the
//     schedule with the cheapest conflict structure.
//   - Across loops, the frame-level storage cycle budget is distributed:
//     every loop body has a conflict-cost-versus-budget curve, and a
//     marginal-gain allocator spends the global budget where it buys the
//     largest cost reduction. Because giving a body one extra cycle costs
//     (iterations) cycles of global budget, budget changes come in
//     whole-loop quanta — the paper's ~300k-cycle jumps in Table 3.
//
// The output is the set of conflict patterns (which groups are accessed
// simultaneously, how often), which constrains the memory allocation and
// assignment step.
package sbd

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"

	"repro/internal/dfg"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/scratch"
	"repro/internal/spec"
)

// offChipCycles is the duration of one off-chip access in storage cycles:
// an EDO DRAM access spans two 20 MHz cycles.
const offChipCycles = 2

// balancePasses bounds the local-search improvement passes of one balance.
const balancePasses = 4

// Params configures the balancer and the cost model it optimizes. Within
// an exploration, core derives it from core.EvalParams; callers of core
// never fill it.
type Params struct {
	// OnChipMaxWords separates on-chip from off-chip groups for the access
	// duration and penalty models. Default 64Ki. core copies it from
	// memlib.Tech.OnChipMaxWords, the value the assignment partitions by.
	OnChipMaxWords int64
	// StructuralWeight scales the iteration-independent conflict term (see
	// StructuralWeight constant). Negative disables it; zero selects the
	// default.
	StructuralWeight float64
	// Obs is the parent telemetry span DistributeContext attaches its
	// spans and counters to; nil disables instrumentation at near-zero
	// cost.
	Obs *obs.Span
	// Progress, when non-nil, is told which stage the exploration is in
	// (the serving layer's live-introspection side channel). Write-only:
	// results are identical with or without it.
	Progress *obs.Progress
	// Memo is the methodology run's cross-variant cache: loop schedules
	// are memoized by canonical fingerprints, so variants that leave a
	// loop untouched re-use its balanced schedule instead of
	// re-scheduling. Nil disables caching.
	Memo *memo.Cache
	// Pipelined enables software pipelining (modulo scheduling): the
	// per-iteration budget becomes an initiation interval, successive
	// iterations overlap, and occupancy wraps around the interval. This
	// extension lets the budget drop below the dependence critical path —
	// the regime where the paper's Table 3 shows the off-chip organization
	// getting more expensive at the tightest budget.
	Pipelined bool
}

func (p *Params) normalize() {
	if p.OnChipMaxWords == 0 {
		p.OnChipMaxWords = 64 * 1024
	}
	if p.StructuralWeight == 0 {
		p.StructuralWeight = StructuralWeight
	} else if p.StructuralWeight < 0 {
		p.StructuralWeight = 0
	}
}

// Duration returns the number of storage cycles one access to g occupies.
func (p Params) Duration(g spec.BasicGroup) int {
	if g.Words > p.OnChipMaxWords {
		return offChipCycles
	}
	return 1
}

// offChip reports whether g lives off-chip under these parameters.
func (p Params) offChip(g spec.BasicGroup) bool { return g.Words > p.OnChipMaxWords }

// proxy is the conflict-cost size proxy of a group: conflicts on bigger
// arrays are costlier to resolve (bigger memories, pricier extra ports).
func proxy(g spec.BasicGroup) float64 { return math.Sqrt(float64(g.BitSize())) }

// selfPenalty prices one unit of same-group overlap (each overlapping
// access beyond the first, per body execution).
func (p Params) selfPenalty(g spec.BasicGroup) float64 {
	if p.offChip(g) {
		return 20 * proxy(g)
	}
	return proxy(g)
}

// pairPenalty prices one co-scheduled pair of distinct groups of the same
// kind (it restricts assignment freedom). Cross-kind overlap is free: an
// on-chip and an off-chip access never compete for a memory.
func (p Params) pairPenalty(g, h spec.BasicGroup) float64 {
	if p.offChip(g) != p.offChip(h) {
		return 0
	}
	base := 0.05 * (proxy(g) + proxy(h)) / 2
	if p.offChip(g) {
		base *= 4 // parallel off-chip buses are expensive
	}
	return base
}

// Pattern is one distinct parallel-access situation: the multiset of groups
// accessed in the same storage cycle, and how many times per frame that
// cycle executes.
type Pattern struct {
	Access map[string]int // group -> simultaneous accesses
	Weight uint64         // executions per frame
}

// appendLoopFingerprint appends a canonical identity of everything a loop's
// balanced schedule depends on: the loop name and iteration count, the
// access structure in slice order (ID, group, branch, dependences), the
// cost-relevant properties of every referenced group (words, bits, and the
// on/off-chip classification that sets durations and penalties), and the
// normalized balancer parameters. Loops with equal fingerprints balance to
// identical schedules at equal budgets, so the run cache's schedule
// keyspace is keyed by the fingerprint's digest (hashed once per cost
// curve) with the budget as the key's word. The on/off-chip threshold
// itself is deliberately absent: it only acts through the per-group
// classification, so budget points that move the threshold without
// reclassifying any referenced group still hit.
//
// The bytes are only hash input: no tier stores them (and only the
// Requests keyspace is backed by a disk tier), so the layout may change
// freely as long as distinct loops keep distinct fingerprints. names is a
// reusable scratch slice (returned grown, like dst).
func appendLoopFingerprint(dst []byte, l *spec.Loop, groups map[string]spec.BasicGroup, p Params, names []string) ([]byte, []string) {
	dst = strconv.AppendQuote(dst, l.Name)
	dst = append(dst, " it="...)
	dst = strconv.AppendUint(dst, l.Iterations, 10)
	dst = append(dst, " sw="...)
	dst = strconv.AppendFloat(dst, p.StructuralWeight, 'g', -1, 64)
	dst = append(dst, " pl="...)
	dst = strconv.AppendBool(dst, p.Pipelined)
	names = names[:0]
	for i := range l.Accesses {
		a := &l.Accesses[i]
		known := false
		for _, n := range names {
			if n == a.Group {
				known = true
				break
			}
		}
		if !known {
			names = append(names, a.Group)
		}
		dst = append(dst, '|')
		dst = strconv.AppendInt(dst, int64(a.ID), 10)
		dst = append(dst, ':')
		dst = strconv.AppendQuote(dst, a.Group)
		dst = append(dst, ';')
		dst = strconv.AppendQuote(dst, a.Branch)
		dst = append(dst, ';')
		dst = append(dst, '[') // %v of []int
		for j, d := range a.Deps {
			if j > 0 {
				dst = append(dst, ' ')
			}
			dst = strconv.AppendInt(dst, int64(d), 10)
		}
		dst = append(dst, ']')
	}
	for _, n := range names {
		g := groups[n]
		dst = append(dst, "|g"...)
		dst = strconv.AppendInt(dst, g.Words, 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(g.Bits), 10)
		dst = append(dst, ',')
		dst = strconv.AppendBool(dst, p.offChip(g))
	}
	return dst, names
}

// StructuralWeight converts a schedule's structural conflict severity (the
// multiplicities it forces, regardless of how often the loop runs) into
// cost units comparable with the iteration-weighted occurrence cost. It is
// what makes the budget distributor de-conflict rarely-executed loops too:
// a memory's port count is the maximum over *all* loops, however cold.
const StructuralWeight = 200_000

// LoopSchedule is the balanced schedule of one loop body.
type LoopSchedule struct {
	Loop   string
	Budget int   // per-iteration storage cycle budget
	Start  []int // access ID -> start cycle
	// WeightedCost is the occurrence conflict cost × loop iterations;
	// StructuralCost prices the worst per-group multiplicity the schedule
	// forces, independent of iterations. Cost is their sum. None of the
	// three is ever negative: a conflict cost is a sum of non-negative
	// terms, and the balancer clamps the rounding drift of its running
	// total at zero (the distributor's early stop depends on it).
	WeightedCost   float64
	StructuralCost float64
	Cost           float64
	// Degraded is true when cancellation stopped the improvement passes
	// before they converged (or before their pass budget ran out): the
	// schedule is complete and feasible but possibly costlier than the one a
	// full run finds. A degraded schedule must never enter the cross-variant
	// cache — a later caller with a live context would be poisoned by it.
	Degraded bool
}

// groupsOf indexes the spec's groups by name.
func groupsOf(s *spec.Spec) map[string]spec.BasicGroup {
	m := make(map[string]spec.BasicGroup, len(s.Groups))
	for _, g := range s.Groups {
		m[g.Name] = g
	}
	return m
}

// loopBody is the budget-independent part of a loop's balancing state: one
// topological order, the successor lists, the access durations, the dense
// group and branch ids and the penalty tables. A loop's cost curve balances
// it at successive budgets from its critical path up, so the distributor
// builds the body once per curve and only the occupancy state once per point.
type loopBody struct {
	l      *spec.Loop
	p      Params
	dur    []int // per access
	maxDur int
	order  []int     // one topological order, shared by windows and placement
	succ   dfg.Succs // successor lists, from the same walk as order

	ng, nb   int       // distinct groups / branch tags (slot 0 = common)
	gid, bid []int     // per access -> group / branch index
	self     []float64 // per gid: same-group overlap penalty
	structW  []float64 // per gid: self[gid] × StructuralWeight
	pair     []float64 // gid × gid (row stride ng): distinct-pair penalty
	conf     []uint64  // per gid: groupBit of the group and of every group with a nonzero pair penalty
}

// groupBit is the bit of gid g in a group mask. Loops with more than 64
// groups share bits modulo 64: a shared bit can only make a mask test
// report a conflict that is not there, never hide one.
func groupBit(g int) uint64 { return 1 << (uint(g) & 63) }

// newLoopBody enumerates the loop's groups and branch tags (linear scans over
// the few distinct names, no map) and precomputes everything the balancer
// reads that does not depend on the budget, on the given arena (nil falls
// back to plain allocation, for tests).
func newLoopBody(l *spec.Loop, groups map[string]spec.BasicGroup, p Params, ar *scratch.Arena) loopBody {
	n := len(l.Accesses)
	b := loopBody{
		l: l, p: p,
		dur:    ar.Ints(n),
		maxDur: 1,
		gid:    ar.Ints(n),
		bid:    ar.Ints(n),
	}
	b.order, b.succ = dfg.TopoOrderScratch(l, ar)
	gnames := ar.Strings(n)[:0]
	bnames := ar.Strings(n + 1)[:0]
	bnames = append(bnames, "")
	for i := range l.Accesses {
		a := &l.Accesses[i]
		b.dur[i] = p.Duration(groups[a.Group])
		if b.dur[i] > b.maxDur {
			b.maxDur = b.dur[i]
		}
		gi := -1
		for j, gn := range gnames {
			if gn == a.Group {
				gi = j
				break
			}
		}
		if gi < 0 {
			gi = len(gnames)
			gnames = append(gnames, a.Group)
		}
		b.gid[i] = gi
		bi := -1
		for j, bn := range bnames {
			if bn == a.Branch {
				bi = j
				break
			}
		}
		if bi < 0 {
			bi = len(bnames)
			bnames = append(bnames, a.Branch)
		}
		b.bid[i] = bi
	}
	b.nb = len(bnames)
	b.ng = len(gnames)
	b.self = ar.Float64s(b.ng)
	b.structW = ar.Float64s(b.ng)
	b.pair = ar.Float64s(b.ng * b.ng)
	b.conf = ar.Uint64s(b.ng)
	for i, gn := range gnames {
		g := groups[gn]
		b.self[i] = p.selfPenalty(g)
		b.structW[i] = b.self[i] * p.StructuralWeight
		b.conf[i] |= groupBit(i)
	}
	for i := 0; i < b.ng; i++ {
		for j := i + 1; j < b.ng; j++ {
			v := p.pairPenalty(groups[gnames[i]], groups[gnames[j]])
			b.pair[i*b.ng+j], b.pair[j*b.ng+i] = v, v
			if v != 0 {
				b.conf[i] |= groupBit(j)
				b.conf[j] |= groupBit(i)
			}
		}
	}
	return b
}

// scheduler is the working state for balancing one loop body at one budget.
// In linear mode the occupancy table spans the budget; in pipelined (modulo)
// mode it spans one initiation interval and accesses wrap around it.
//
// The inner loop — trialCost, during placement and local search — runs
// millions of times per exploration sweep. The state it reads is dense,
// sparse and cached, and a trial writes none of it:
//
//   - Dense: the loop body (ids, durations, penalty tables) is built once per
//     cost curve; the occupancy table is a flat counter array indexed by
//     (slot, branch, group). All of it is carved from pooled scratch arenas,
//     so building and discarding a scheduler allocates only the start slice
//     that outlives it in the returned LoopSchedule.
//   - Sparse: next to every (slot, branch) counter row, nz keeps the
//     ascending list of its nonzero gids (act holds the list length). A row
//     rarely has more than one or two, so a scenario is priced by merging
//     short lists instead of scanning every group.
//   - Cached: scen holds the price of every active branch scenario (common ⊎
//     branch), cyc the resulting cycle cost — the worst active scenario, or
//     the common part alone when no branch is active — and mask the groups
//     present in each (slot, branch) row. A count change in branch b
//     re-prices only scenario b; a change in the common row re-prices the
//     active scenarios once.
//
// A trial computes each touched slot's new cycle cost without changing any
// state: peekCyc re-prices exactly the scenarios reprice would after the
// count change, with the access merged into the price (priceWith). Most
// trials need no pricing at all. When no group present in the scenarios the
// placement re-prices is the access's own group or one it has a nonzero pair
// penalty with (scenMask & conf[g] == 0), the new cycle cost equals the old
// one bit for bit: the access adds only +0 terms (a count of one has no self term) to
// sums of non-negative terms, which leaves every partial sum unchanged; and a
// branch scenario it newly activates prices like the common part alone,
// which never exceeds an active scenario's price and equals the common-only
// cost when none was active.
//
// The returned trial cost, and cost itself, carry the rounding of the
// historical place-then-remove sequence, which the pinned schedules depend
// on: a trial replays on cost, per touched slot in order, cost -= old;
// cost += new, reads cost, then per slot in order cost -= new; cost += old.
// An access longer than the initiation interval visits one slot twice and
// takes the real place and unplace instead; unplace re-prices to the bits
// the slot held before.
//
// Every cached value is recomputed from the counters by the same sequence of
// float additions the dense definition performs (zero terms add nothing), so
// the balanced schedules and their cost bits do not depend on the caching.
type scheduler struct {
	loopBody
	ar     *scratch.Arena
	budget int   // linear budget, or the initiation interval when pipelined
	start  []int // per access, -1 = unplaced (heap: escapes via LoopSchedule)
	cost   float64

	cnt        []int     // occupancy counters, [slot][bid][gid] flattened
	act        []int     // nonzero-group count per [slot][bid]
	nz         []int     // [slot][bid][:act] ascending nonzero gids (row stride ng)
	scen       []float64 // [slot][bid], bid > 0: price of common ⊎ branch while active
	cyc        []float64 // per slot: cycle cost
	mask       []uint64  // per [slot][bid]: groupBit of every group present in the row
	mg, mk     []int     // scratch: merged scenario gids / counts, len ng
	fresh      []float64 // scratch: a trial's new cycle cost per touched slot, len maxDur
	structured []int     // scratch for structuralCost, len ng

	trials, freeTrials int // trialCost calls, and those no slot of which needed pricing
}

// newScheduler builds the per-budget working state for the body on the
// given arena (nil falls back to plain allocation, for tests).
func (b *loopBody) newScheduler(budget int, ar *scratch.Arena) *scheduler {
	s := &scheduler{loopBody: *b, ar: ar, budget: budget, start: make([]int, len(b.dur))}
	for i := range s.start {
		s.start[i] = -1
	}
	s.cnt = ar.Ints(budget * s.nb * s.ng)
	s.act = ar.Ints(budget * s.nb)
	s.nz = ar.Ints(budget * s.nb * s.ng)
	s.scen = ar.Float64s(budget * s.nb)
	s.cyc = ar.Float64s(budget)
	s.mask = ar.Uint64s(budget * s.nb)
	s.mg = ar.Ints(s.ng)
	s.mk = ar.Ints(s.ng)
	s.fresh = ar.Float64s(s.maxDur)
	s.structured = ar.Ints(s.ng)
	return s
}

// merge fills mg/mk with the ascending gids and counts of one effective
// access pattern of a slot — the common row alone (b == 0) or the common row
// plus branch b — and returns their number.
func (s *scheduler) merge(slot, b int) int {
	row := slot * s.nb
	cb := row * s.ng
	common := s.nz[cb : cb+s.act[row]]
	m := 0
	if b == 0 {
		for _, g := range common {
			s.mg[m], s.mk[m] = g, s.cnt[cb+g]
			m++
		}
		return m
	}
	bb := (row + b) * s.ng
	br := s.nz[bb : bb+s.act[row+b]]
	x, y := 0, 0
	for x < len(common) || y < len(br) {
		var g int
		switch {
		case y == len(br) || (x < len(common) && common[x] < br[y]):
			g = common[x]
			x++
		case x == len(common) || br[y] < common[x]:
			g = br[y]
			y++
		default:
			g = common[x]
			x++
			y++
		}
		s.mg[m], s.mk[m] = g, s.cnt[cb+g]+s.cnt[bb+g]
		m++
	}
	return m
}

// sum prices the pattern merge left in mg/mk[:m]. Same-group overlap is
// priced superlinearly: every extra port on a memory costs more than the
// previous one, so the balancer prefers two cycles with doubled accesses
// over one cycle with quadrupled accesses. Terms are added in the dense
// order: ascending i, its self term, then its pair terms in ascending j.
func (s *scheduler) sum(m int) float64 {
	var c float64
	for x := 0; x < m; x++ {
		i := s.mg[x]
		if k := s.mk[x]; k > 1 {
			c += float64((k-1)*(k-1)) * s.self[i]
		}
		pr := s.pair[i*s.ng : (i+1)*s.ng]
		for _, j := range s.mg[x+1 : m] {
			c += pr[j]
		}
	}
	return c
}

// price prices one effective access pattern of a slot: the common row alone
// (b == 0) or the common row plus branch b.
func (s *scheduler) price(slot, b int) float64 { return s.sum(s.merge(slot, b)) }

// priceWith is price with one more access of group x in the pattern — the
// value price returns after that count change — computed without making it.
func (s *scheduler) priceWith(slot, b, x int) float64 {
	m := s.merge(slot, b)
	j := 0
	for j < m && s.mg[j] < x {
		j++
	}
	if j < m && s.mg[j] == x {
		s.mk[j]++
	} else {
		copy(s.mg[j+1:m+1], s.mg[j:m])
		copy(s.mk[j+1:m+1], s.mk[j:m])
		s.mg[j], s.mk[j] = x, 1
		m++
	}
	return s.sum(m)
}

// reprice refreshes a slot's cached costs after a count change in branch b.
// A cycle costs the worst case over its branch scenarios: accesses under
// different branch tags are mutually exclusive, so the effective pattern is
// the common part plus one branch (common-only is pointwise-dominated
// whenever any branch is active).
func (s *scheduler) reprice(slot, b int) {
	row := slot * s.nb
	if b > 0 {
		if s.act[row+b] > 0 {
			s.scen[row+b] = s.price(slot, b)
		}
	} else {
		for bb := 1; bb < s.nb; bb++ {
			if s.act[row+bb] > 0 {
				s.scen[row+bb] = s.price(slot, bb)
			}
		}
	}
	worst := 0.0
	anyBranch := false
	for bb := 1; bb < s.nb; bb++ {
		if s.act[row+bb] == 0 {
			continue
		}
		anyBranch = true
		if c := s.scen[row+bb]; c > worst {
			worst = c
		}
	}
	if !anyBranch {
		worst = s.price(slot, 0) // 0 for an empty slot
	}
	s.cyc[slot] = worst
}

// peekCyc returns the cycle cost a slot would have with one more access of
// group x under branch b: the value inc followed by reprice would leave in
// cyc, from the same scenario prices compared in the same order.
func (s *scheduler) peekCyc(slot, b, x int) float64 {
	row := slot * s.nb
	worst := 0.0
	if b > 0 {
		for bb := 1; bb < s.nb; bb++ {
			var c float64
			switch {
			case bb == b:
				c = s.priceWith(slot, b, x)
			case s.act[row+bb] > 0:
				c = s.scen[row+bb]
			default:
				continue
			}
			if c > worst {
				worst = c
			}
		}
		return worst
	}
	anyBranch := false
	for bb := 1; bb < s.nb; bb++ {
		if s.act[row+bb] == 0 {
			continue
		}
		anyBranch = true
		if c := s.priceWith(slot, bb, x); c > worst {
			worst = c
		}
	}
	if !anyBranch {
		worst = s.priceWith(slot, 0, x)
	}
	return worst
}

// slot maps an absolute cycle to an occupancy slot: identity in linear
// mode, modulo the initiation interval when pipelined.
func (s *scheduler) slot(k int) int {
	if s.p.Pipelined {
		return k % s.budget
	}
	return k
}

// inc adds one occupancy of group g under branch b to a slot, keeping the
// row's nonzero list sorted.
func (s *scheduler) inc(slot, b, g int) {
	row := slot*s.nb + b
	if s.cnt[row*s.ng+g]++; s.cnt[row*s.ng+g] == 1 {
		list := s.nz[row*s.ng : row*s.ng+s.act[row]+1]
		j := len(list) - 1
		for ; j > 0 && list[j-1] > g; j-- {
			list[j] = list[j-1]
		}
		list[j] = g
		s.act[row]++
		s.mask[row] |= groupBit(g)
	}
}

// dec removes one occupancy of group g under branch b from a slot.
func (s *scheduler) dec(slot, b, g int) {
	row := slot*s.nb + b
	if s.cnt[row*s.ng+g]--; s.cnt[row*s.ng+g] == 0 {
		list := s.nz[row*s.ng : row*s.ng+s.act[row]]
		j := 0
		for list[j] != g {
			j++
		}
		copy(list[j:], list[j+1:])
		s.act[row]--
		// g may share its bit with another group of the row: rebuild.
		var m uint64
		for _, h := range list[:len(list)-1] {
			m |= groupBit(h)
		}
		s.mask[row] = m
	}
}

// scenMask returns the groups present in the scenarios a count change in
// branch b of a slot re-prices: common ⊎ b, or every row when b == 0.
func (s *scheduler) scenMask(slot, b int) uint64 {
	row := slot * s.nb
	if b > 0 {
		return s.mask[row] | s.mask[row+b]
	}
	var m uint64
	for r := row; r < row+s.nb; r++ {
		m |= s.mask[r]
	}
	return m
}

// place puts access id at cycle c, updating occupancy and cost.
func (s *scheduler) place(id, c int) {
	g, b := s.gid[id], s.bid[id]
	for k := c; k < c+s.dur[id]; k++ {
		slot := s.slot(k)
		s.cost -= s.cyc[slot]
		s.inc(slot, b, g)
		s.reprice(slot, b)
		s.cost += s.cyc[slot]
	}
	s.start[id] = c
}

// unplace removes access id from the schedule.
func (s *scheduler) unplace(id int) {
	g, b := s.gid[id], s.bid[id]
	c := s.start[id]
	for k := c; k < c+s.dur[id]; k++ {
		slot := s.slot(k)
		s.cost -= s.cyc[slot]
		s.dec(slot, b, g)
		s.reprice(slot, b)
		s.cost += s.cyc[slot]
	}
	s.start[id] = -1
}

// trialCost returns the cost after hypothetically placing the unplaced
// access id at c. It leaves the occupancy and cached prices untouched and
// cost as place followed by unplace would (see the scheduler comment).
func (s *scheduler) trialCost(id, c int) float64 {
	s.trials++
	g, b, d := s.gid[id], s.bid[id], s.dur[id]
	if d > s.budget { // pipelined: the access wraps onto a slot twice
		s.place(id, c)
		v := s.cost
		s.unplace(id)
		return v
	}
	fresh := s.fresh[:d]
	conf := s.conf[g]
	free := true
	for i := range fresh {
		slot := s.slot(c + i)
		if s.scenMask(slot, b)&conf == 0 {
			fresh[i] = s.cyc[slot]
		} else {
			fresh[i] = s.peekCyc(slot, b, g)
			free = false
		}
	}
	if free {
		s.freeTrials++
	}
	for i, nv := range fresh {
		s.cost -= s.cyc[s.slot(c+i)]
		s.cost += nv
	}
	v := s.cost
	for i, nv := range fresh {
		s.cost -= nv
		s.cost += s.cyc[s.slot(c+i)]
	}
	return v
}

// window returns the feasible start range of id given the current positions
// of its placed neighbours (deps must finish first, successors must be
// startable after).
func (s *scheduler) window(id int, asap, alap []int) (lo, hi int) {
	lo, hi = asap[id], alap[id]
	for _, d := range s.l.Accesses[id].Deps {
		if s.start[d] >= 0 && s.start[d]+s.dur[d] > lo {
			lo = s.start[d] + s.dur[d]
		}
	}
	for _, sc := range s.succ.Of(id) {
		if s.start[sc] >= 0 && s.start[sc]-s.dur[id] < hi {
			hi = s.start[sc] - s.dur[id]
		}
	}
	return lo, hi
}

// pipelinedWindows computes the start windows for modulo scheduling: ASAP
// from the dependences, one initiation interval of slack for each access.
func (s *scheduler) pipelinedWindows() (asap, alap []int) {
	n := len(s.l.Accesses)
	asap = s.ar.Ints(n)
	alap = s.ar.Ints(n)
	for _, id := range s.order {
		st := 0
		for _, d := range s.l.Accesses[id].Deps {
			if f := asap[d] + s.dur[d]; f > st {
				st = f
			}
		}
		asap[id] = st
		alap[id] = st + s.budget - 1
	}
	return asap, alap
}

// asapAlap computes duration-weighted start windows; returns an error when
// the budget is below the duration-weighted critical path.
func (s *scheduler) asapAlap() (asap, alap []int, err error) {
	n := len(s.l.Accesses)
	asap = s.ar.Ints(n)
	alap = s.ar.Ints(n)
	for _, id := range s.order {
		st := 0
		for _, d := range s.l.Accesses[id].Deps {
			if f := asap[d] + s.dur[d]; f > st {
				st = f
			}
		}
		asap[id] = st
	}
	for i := n - 1; i >= 0; i-- {
		id := s.order[i]
		la := s.budget - s.dur[id]
		for _, sc := range s.succ.Of(id) {
			if v := alap[sc] - s.dur[id]; v < la {
				la = v
			}
		}
		alap[id] = la
		if la < asap[id] {
			return nil, nil, fmt.Errorf("sbd: loop %q: budget %d below weighted critical path",
				s.l.Name, s.budget)
		}
	}
	return asap, alap, nil
}

// WeightedCP returns the duration-weighted critical path of the loop body:
// its minimum feasible per-iteration budget.
func WeightedCP(l *spec.Loop, groups map[string]spec.BasicGroup, p Params) int {
	p.normalize()
	ar := scratch.Get()
	defer scratch.Put(ar)
	return weightedCP(l, groups, p, ar)
}

// weightedCP is WeightedCP on a caller-owned arena with p already
// normalized.
func weightedCP(l *spec.Loop, groups map[string]spec.BasicGroup, p Params, ar *scratch.Arena) int {
	longest := 0
	finish := ar.Ints(len(l.Accesses))
	order, _ := dfg.TopoOrderScratch(l, ar)
	for _, id := range order {
		st := 0
		for _, d := range l.Accesses[id].Deps {
			if finish[d] > st {
				st = finish[d]
			}
		}
		finish[id] = st + p.Duration(groups[l.Accesses[id].Group])
		if finish[id] > longest {
			longest = finish[id]
		}
	}
	return longest
}

// balance schedules a prepared loop body within the given per-iteration
// budget of at least one (the initiation interval when pipelining is
// enabled) and returns the schedule with its conflict cost, already
// weighted by the loop's iteration count. When ctx is done, the
// local-search improvement passes stop early (checked once per pass) and
// the current schedule — always complete and feasible after the initial
// placement — is returned. The per-budget state is carved from ar.
func (b *loopBody) balance(ctx context.Context, budget int, ar *scratch.Arena) (*LoopSchedule, error) {
	l, p := b.l, b.p
	s := b.newScheduler(budget, ar)
	var asap, alap []int
	var err error
	if p.Pipelined {
		// Modulo scheduling: dependences define the earliest starts, each
		// access gets one initiation interval of slack, and occupancy wraps.
		asap, alap = s.pipelinedWindows()
	} else {
		asap, alap, err = s.asapAlap()
		if err != nil {
			return nil, err
		}
	}
	// Initial placement: topological order, cheapest feasible cycle
	// (earliest on ties keeps the schedule compact and deterministic).
	for _, id := range s.order {
		lo, hi := s.window(id, asap, alap)
		bestC, bestV := lo, math.Inf(1)
		for c := lo; c <= hi; c++ {
			if v := s.trialCost(id, c); v < bestV-1e-12 {
				bestC, bestV = c, v
			}
		}
		s.place(id, bestC)
	}
	// Local search: move single accesses to cheaper cycles until fixpoint.
	// The initial placement is already a complete feasible schedule, so the
	// improvement passes can stop at any pass boundary under cancellation.
	done := ctx.Done()
	passes, moves := 0, 0
	degraded := false
	for pass := 0; pass < balancePasses; pass++ {
		if done != nil {
			select {
			case <-done:
				degraded = true
			default:
			}
		}
		if degraded {
			// Stopped before convergence (or before the pass budget ran out
			// deterministically): the schedule is valid but best-effort.
			break
		}
		passes++
		improved := false
		for id := range l.Accesses {
			cur := s.start[id]
			s.unplace(id)
			lo, hi := s.window(id, asap, alap)
			bestC, bestV := cur, s.trialCost(id, cur)
			for c := lo; c <= hi; c++ {
				if c == cur {
					continue
				}
				if v := s.trialCost(id, c); v < bestV-1e-9 {
					bestC, bestV = c, v
				}
			}
			s.place(id, bestC)
			if bestC != cur {
				improved = true
				moves++
			}
		}
		if !improved {
			break
		}
	}
	if o := p.Obs.Observer(); o != nil {
		o.Counter("sbd.balance_calls").Add(1)
		o.Counter("sbd.balance_passes").Add(int64(passes))
		o.Counter("sbd.balance_moves").Add(int64(moves))
		o.Counter("sbd.trials").Add(int64(s.trials))
		o.Counter("sbd.trials_conflict_free").Add(int64(s.freeTrials))
	}
	// The running cost is a sum of non-negative cycle costs kept by
	// subtract-then-add updates, so rounding can leave it a few ulps below
	// zero where the true cost is 0. Clamp it: a schedule never costs less
	// than nothing, and the distributor's early stop relies on that.
	weighted := max(s.cost, 0) * float64(l.Iterations)
	structural := s.structuralCost()
	return &LoopSchedule{
		Loop:           l.Name,
		Budget:         budget,
		Start:          s.start,
		WeightedCost:   weighted,
		StructuralCost: structural,
		Cost:           weighted + structural,
		Degraded:       degraded,
	}, nil
}

// structuralCost prices the worst same-group multiplicity each group
// suffers anywhere in the schedule (superlinearly, like patternCost).
func (s *scheduler) structuralCost() float64 {
	maxMult := s.structured
	for g := range maxMult {
		maxMult[g] = 0
	}
	for slot := 0; slot < s.budget; slot++ {
		base := slot * s.nb * s.ng
		common := s.cnt[base : base+s.ng]
		anyBranch := false
		for b := 1; b < s.nb; b++ {
			if s.act[slot*s.nb+b] == 0 {
				continue
			}
			anyBranch = true
			br := s.cnt[base+b*s.ng : base+(b+1)*s.ng]
			for g := range maxMult {
				if k := common[g] + br[g]; k > maxMult[g] {
					maxMult[g] = k
				}
			}
		}
		if !anyBranch {
			for g := range maxMult {
				if common[g] > maxMult[g] {
					maxMult[g] = common[g]
				}
			}
		}
	}
	var c float64
	for g, k := range maxMult {
		if k > 1 {
			c += float64((k-1)*(k-1)) * s.structW[g]
		}
	}
	return c
}

// loopPatterns merges the conflict-pattern contribution of one committed
// loop schedule into byKey, the caller's merge map keyed by each pattern's
// canonical identity ("name:count;" in sorted name order): a pattern
// already present gains the loop's iterations as weight, a new one is
// added.
//
// The occupancy is accumulated in a dense (cycle, branch, group) counter
// table on a pooled arena — the map-of-maps per cycle this replaces was one
// of the largest allocation sites of an exploration. A cycle's effective
// access pattern is the common (unconditional) part plus one branch:
// accesses under different branch tags are mutually exclusive, and the
// common-only pattern is pointwise-dominated whenever any branch is active.
// Only patterns new to byKey materialize maps.
func loopPatterns(l *spec.Loop, sc *LoopSchedule, groups map[string]spec.BasicGroup, p Params, byKey map[string]*Pattern) {
	ar := scratch.Get()
	defer scratch.Put(ar)
	n := len(l.Accesses)
	// Enumerate the distinct group and branch names (slot 0 = common).
	gnames := ar.Strings(n)[:0]
	bnames := ar.Strings(n + 1)[:0]
	bnames = append(bnames, "")
	gid := ar.Ints(n)
	bid := ar.Ints(n)
	for i := range l.Accesses {
		a := &l.Accesses[i]
		gi := -1
		for j, gn := range gnames {
			if gn == a.Group {
				gi = j
				break
			}
		}
		if gi < 0 {
			gi = len(gnames)
			gnames = append(gnames, a.Group)
		}
		gid[i] = gi
		bi := -1
		for j, bn := range bnames {
			if bn == a.Branch {
				bi = j
				break
			}
		}
		if bi < 0 {
			bi = len(bnames)
			bnames = append(bnames, a.Branch)
		}
		bid[i] = bi
	}
	ng, nb := len(gnames), len(bnames)
	cnt := ar.Ints(sc.Budget * nb * ng)
	for i := range l.Accesses {
		a := &l.Accesses[i]
		d := p.Duration(groups[a.Group])
		for k := sc.Start[a.ID]; k < sc.Start[a.ID]+d; k++ {
			ki := k
			if p.Pipelined {
				ki = k % sc.Budget
			}
			cnt[(ki*nb+bid[i])*ng+gid[i]]++
		}
	}
	// gids in sorted-name order, so the canonical "name:count;" keys come
	// out identical to sorting each pattern's names.
	sortedGid := ar.Ints(ng)
	for i := range sortedGid {
		sortedGid[i] = i
	}
	for i := 1; i < ng; i++ {
		for j := i; j > 0 && gnames[sortedGid[j]] < gnames[sortedGid[j-1]]; j-- {
			sortedGid[j], sortedGid[j-1] = sortedGid[j-1], sortedGid[j]
		}
	}
	merged := ar.Ints(ng)
	keyBuf := ar.Buf(256)
	emit := func(pat []int) {
		keyBuf = keyBuf[:0]
		nz := 0
		for _, gi := range sortedGid {
			if pat[gi] == 0 {
				continue
			}
			nz++
			keyBuf = append(keyBuf, gnames[gi]...)
			keyBuf = append(keyBuf, ':')
			keyBuf = strconv.AppendInt(keyBuf, int64(pat[gi]), 10)
			keyBuf = append(keyBuf, ';')
		}
		if nz == 0 {
			return
		}
		if ex := byKey[string(keyBuf)]; ex != nil {
			ex.Weight += l.Iterations
			return
		}
		cp := Pattern{Access: make(map[string]int, nz), Weight: l.Iterations}
		for gi, c := range pat {
			if c != 0 {
				cp.Access[gnames[gi]] = c
			}
		}
		byKey[string(keyBuf)] = &cp
	}
	for slot := 0; slot < sc.Budget; slot++ {
		base := slot * nb * ng
		common := cnt[base : base+ng]
		anyBranch := false
		for b := 1; b < nb; b++ {
			br := cnt[base+b*ng : base+(b+1)*ng]
			active := false
			for _, v := range br {
				if v != 0 {
					active = true
					break
				}
			}
			if !active {
				continue
			}
			anyBranch = true
			for g := range merged {
				merged[g] = common[g] + br[g]
			}
			emit(merged)
		}
		if !anyBranch {
			emit(common)
		}
	}
}

// sortedPatterns flattens a merge map into the canonical sorted order.
func sortedPatterns(byKey map[string]*Pattern) []Pattern {
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Pattern, 0, len(keys))
	for _, k := range keys {
		out = append(out, *byKey[k])
	}
	return out
}

// patternsOf derives the merged conflict patterns of a set of schedules,
// in canonical sorted order, on caller-owned groups (p already
// normalized): the distributor calls it with the state it already built.
// Every loop merges into one map, which is sorted once.
func patternsOf(s *spec.Spec, scheds []*LoopSchedule, groups map[string]spec.BasicGroup, p Params) []Pattern {
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
		loopPatterns(l, sc, groups, p, byKey)
	}
	return sortedPatterns(byKey)
}

// PrunePatterns removes patterns dominated by another pattern (every
// group's multiplicity ≤ the other's). Dominated patterns never determine a
// memory's port requirement, so dropping them loses nothing for the
// allocation step while shrinking its constraint set dramatically.
func PrunePatterns(pats []Pattern) []Pattern {
	dominatedBy := func(a, b Pattern) bool { // a ≤ b pointwise
		for g, k := range a.Access {
			if b.Access[g] < k {
				return false
			}
		}
		return true
	}
	var out []Pattern
	for i, a := range pats {
		dominated := false
		for j, b := range pats {
			if i == j {
				continue
			}
			if dominatedBy(a, b) && (!dominatedBy(b, a) || j < i) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, a)
		}
	}
	return out
}

// RequiredPorts returns, per group, the maximum simultaneity the schedule
// imposes on it: the minimum port count of whatever memory it lands in.
func RequiredPorts(patterns []Pattern) map[string]int {
	ports := make(map[string]int)
	for _, pt := range patterns {
		for g, k := range pt.Access {
			if k > ports[g] {
				ports[g] = k
			}
		}
	}
	return ports
}

// Distribution is the result of distributing the frame budget over loops.
type Distribution struct {
	TotalBudget uint64 // the budget that was offered
	Used        uint64 // Σ budget_l × iterations_l actually committed
	Loops       []*LoopSchedule
	Patterns    []Pattern
	Cost        float64 // Σ weighted conflict costs
	// Degraded is true when a deadline or cancellation cut the exploration
	// short: the distribution is valid and feasible (every loop meets its
	// committed budget) but profitable budget moves may have been skipped.
	Degraded bool
}

// ExtraCycles returns the cycles left over for data-path scheduling — the
// quantity the paper's Table 3 reports ("extra cycles for data-path").
func (d *Distribution) ExtraCycles() uint64 { return d.TotalBudget - d.Used }

// DistributeContext allocates the global storage cycle budget over the loop
// bodies and balances each, minimizing total conflict cost. It fails if the
// budget is below the specification's duration-weighted MACP (then only
// loop transformations can help, §4.2).
//
// The distribution is *anytime*: every loop's minimum-budget schedule is
// always built (so a feasible problem always yields a feasible result), and
// when ctx expires the remaining curve points and budget moves are skipped
// with Degraded=true. Real infeasibility (budget below the weighted MACP)
// still errors regardless of the context.
//
// Cost curves are built on demand. Each curve starts with its minimum-budget
// point; the marginal-gain greedy balances the next budget of a curve only
// when its scan reaches it, the spend still fits the remaining budget, and
// the point could still win the round. That last test is exact, not a
// heuristic: schedule costs are never negative, and IEEE subtraction and
// division are monotone, so with c0 the cost at the chosen point, a later
// point's gain c0 - c_j is at most c0 and its ratio at most c0/spend_j.
// That bound only falls as the point's budget (and so spend_j) grows, and
// the round's best ratio only rises, so once c0/spend_j <= bestRatio+1e-12
// no later point of the curve can beat the round's best. Every round
// therefore picks exactly the point a scan over fully built curves picks,
// and the committed distribution is the same; the points past the bound are
// never balanced.
//
// A curve may also jump from its minimum straight to its end, max = Σ
// durations, where the serial schedule is conflict-free. The jump needs
// three facts about every curve still open after its minimum point:
//
//   - It qualifies (everyOverlapCosts): linear mode, no access under a
//     branch tag, and all of the loop's groups of one kind. Then any two
//     accesses sharing a storage cycle cost more than zero: two of one group
//     pay the self penalty, two of distinct groups the pair penalty of one
//     kind, and no branch exclusivity makes an overlap free. Each such term
//     is at least 0.05, since proxy >= 1 for a group of at least one word
//     and bit. Below max some cycle holds two accesses (pigeonhole), so
//     every point of the curve before max costs at least 0.05 × iterations,
//     and only max can cost 0.
//   - The remaining budget covers Σ (max - min) × iterations over the open
//     curves. A curve never spends past its own max, so no spend the scan
//     considers ever exceeds what remains: the budget cannot stop the scan.
//   - Balancing each at max yields a complete schedule (not Degraded) of
//     cost 0.
//
// Then the scan over fully built curves ends every open curve at max. A
// curve at a point before max costs c0 >= 0.05 × iterations, and moving
// to max gains all of c0 for a spend of at most (max - min) × iterations:
// a ratio of at least 0.05/(max - min). That clears the scan's 1e-12
// cut-off for any loop of fewer than 5·10^10 access cycles (max - min <
// Σ durations), so the c0/spend_j bound never stops the curve before max,
// and max is a candidate of ratio above 1e-12 in every round the curve
// sits below it: each round commits a move until every curve sits at max,
// where its curve ends. Monotonizing keeps the max schedule itself there,
// its cost 0 being below every earlier point's. This holds whatever the
// order of the scan's rounds, which is why the jump asks all open curves
// to qualify at once: a curve that does not qualify may end where the
// 1e-12 slack between near-equal ratios leaves it, which can depend on the
// other curves' moves. So the jump builds each open curve's max point
// right after the minimum points and, when all come out clean, hands the
// scan curves of two points; the scan commits the same max schedules
// without balancing the points between. When one end does not come out
// clean (the balancer missed the conflict-free schedule, or cancellation
// cut it short), the jump is dropped for every curve and the scan builds
// them point by point as before, except that a curve reaching max takes the
// complete schedule the jump balanced there instead of balancing it again
// (balancing is deterministic under a live context).
func DistributeContext(ctx context.Context, s *spec.Spec, totalBudget uint64, p Params) (*Distribution, error) {
	return distribute(ctx, s, totalBudget, p, true)
}

// curvePoint is one resolved point of a loop's cost curve: the
// per-iteration budget it stands at, and the schedule committed there
// (monotonized: the cheapest schedule found at that budget or below it).
type curvePoint struct {
	budget int
	sc     *LoopSchedule
}

// curve is one loop's cost curve as far as the distributor has built it:
// its points in ascending budget, one per budget from min on while the scan
// extends it, or just min and max after a jump.
type curve struct {
	loop   *spec.Loop
	key    memo.Key // schedule-cache key of the curve (when p.Memo is set)
	min    int      // weighted critical path
	max    int      // budget beyond which cost is zero anyway
	pts    []curvePoint
	end    *LoopSchedule // balanced at max by a dropped jump, for the scan to reuse
	ended  bool          // pts reaches the curve's end
	chosen int           // index into pts
	body   loopBody      // built on the first curve point not cached
	built  bool
}

// budgetAt is the budget of point j, or of the next point the scan would
// build when j == len(pts).
func (cv *curve) budgetAt(j int) int {
	if j < len(cv.pts) {
		return cv.pts[j].budget
	}
	return cv.pts[len(cv.pts)-1].budget + 1
}

// everyOverlapCosts reports whether every two accesses of the loop that
// share a storage cycle cost more than zero: the loop is scheduled
// linearly, no access carries a branch tag, and its groups are all on-chip
// or all off-chip (a cross-kind pair is free).
func everyOverlapCosts(l *spec.Loop, groups map[string]spec.BasicGroup, p Params) bool {
	if p.Pipelined {
		return false
	}
	for i := range l.Accesses {
		a := &l.Accesses[i]
		if a.Branch != "" || p.offChip(groups[a.Group]) != p.offChip(groups[l.Accesses[0].Group]) {
			return false
		}
	}
	return true
}

// spansCovered reports whether every curve still open qualifies for the
// jump and remaining covers Σ (max - min) × iterations over them.
func spansCovered(curves []*curve, remaining uint64, groups map[string]spec.BasicGroup, p Params) bool {
	var need uint64
	for _, cv := range curves {
		if cv.ended {
			continue
		}
		if !everyOverlapCosts(cv.loop, groups, p) {
			return false
		}
		hi, span := bits.Mul64(uint64(cv.max-cv.min), cv.loop.Iterations)
		var carry uint64
		need, carry = bits.Add64(need, span, 0)
		if hi != 0 || carry != 0 || need > remaining {
			return false
		}
	}
	return true
}

// distribute is DistributeContext; jump=false always builds the curves
// point by point, the reference the jump is tested against.
func distribute(ctx context.Context, s *spec.Spec, totalBudget uint64, p Params, jump bool) (*Distribution, error) {
	p.normalize()
	sp := p.Obs.Child("sbd.distribute")
	defer sp.End()
	p.Progress.SetStage("sbd")
	sp.SetInt("budget", int64(totalBudget))
	groups := groupsOf(s)
	ar := scratch.Get()
	defer scratch.Put(ar)

	curves := make([]*curve, 0, len(s.Loops))
	fp, fpNames := ar.Buf(512), ar.Strings(16)[:0]
	var minTotal uint64
	for i := range s.Loops {
		l := &s.Loops[i]
		if len(l.Accesses) == 0 {
			continue
		}
		cv := &curve{loop: l, min: weightedCP(l, groups, p, ar)}
		if p.Memo != nil {
			fp, fpNames = appendLoopFingerprint(fp[:0], l, groups, p, fpNames)
			cv.key = memo.NewKey(fp, 0)
		}
		if p.Pipelined {
			// Modulo scheduling: the initiation interval may drop below the
			// critical path, down to the longest single access.
			cv.min = 1
			for _, a := range l.Accesses {
				if d := p.Duration(groups[a.Group]); d > cv.min {
					cv.min = d
				}
			}
		}
		// Past Σ durations the trivially serial schedule is conflict-free.
		sumDur := 0
		for _, a := range l.Accesses {
			sumDur += p.Duration(groups[a.Group])
		}
		cv.max = sumDur
		if cv.max < cv.min {
			cv.max = cv.min
		}
		minTotal += uint64(cv.min) * l.Iterations
		curves = append(curves, cv)
	}
	if minTotal > totalBudget {
		return nil, fmt.Errorf(
			"sbd: budget %d below weighted MACP %d; apply loop transformations first",
			totalBudget, minTotal)
	}
	done := ctx.Done()
	canceled := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	degraded := false
	// balance resolves one curve point, through the run cache when one is
	// attached. A fully converged result is deterministic and cached; one
	// degraded by cancellation (improvement passes cut short, reported by
	// the schedule's own Degraded flag) is returned but not cached, so later
	// callers with a live context redo it properly — a degraded schedule
	// entering the cache would poison every later caller sharing it.
	// Deterministic infeasibility errors are cached
	// too. Concurrent sweep points requesting the same curve share one
	// computation (singleflight).
	type schedResult struct {
		sc  *LoopSchedule
		err error
	}
	points := 0 // curve points resolved, kept or not
	compute := func(cv *curve, b int) (*LoopSchedule, error) {
		if !cv.built {
			cv.body, cv.built = newLoopBody(cv.loop, groups, p, ar), true
		}
		pa := scratch.Get()
		defer scratch.Put(pa)
		return cv.body.balance(ctx, b, pa)
	}
	balance := func(cv *curve, b int) (*LoopSchedule, error) {
		points++
		if p.Memo == nil {
			return compute(cv, b)
		}
		r := p.Memo.Do(memo.Schedule, cv.key.WithWord(uint64(b)), func() (any, bool) {
			sc, err := compute(cv, b)
			return schedResult{sc, err}, err != nil || !sc.Degraded
		}).(schedResult)
		return r.sc, r.err
	}
	// extend appends the curve's next point, monotonized: a schedule found
	// at a smaller budget is valid (and committed) at any larger one. The
	// curve ends at the first conflict-free point or at max. It reports
	// false when the curve has no next point, or cancellation stopped it.
	extend := func(cv *curve) (bool, error) {
		if cv.ended {
			return false, nil
		}
		b := cv.min
		if len(cv.pts) > 0 {
			if canceled() {
				degraded = true
				return false, nil
			}
			b = cv.budgetAt(len(cv.pts))
		}
		sc := cv.end
		if b != cv.max || sc == nil {
			var err error
			if sc, err = balance(cv, b); err != nil {
				return false, err
			}
		}
		cv.ended = sc.Cost == 0 || b >= cv.max
		if j := len(cv.pts); j > 0 && sc.Cost >= cv.pts[j-1].sc.Cost {
			sc = cv.pts[j-1].sc
		}
		cv.pts = append(cv.pts, curvePoint{b, sc})
		return true, nil
	}
	// The minimum-budget point is always built, whatever the context: it is
	// what keeps a degraded distribution feasible.
	for _, cv := range curves {
		if _, err := extend(cv); err != nil {
			return nil, err
		}
	}
	remaining := totalBudget - minTotal
	// The jump (see the doc comment): build every open curve's max point
	// now, and keep them only if all came out complete and conflict-free.
	// When the jump is dropped, the complete max schedules it built wait in
	// cv.end, so the scan does not balance them a second time.
	if jump && spansCovered(curves, remaining, groups, p) {
		ends := make([]*LoopSchedule, len(curves))
		clean := true
		for i, cv := range curves {
			if cv.ended {
				continue
			}
			if canceled() {
				degraded = true
				clean = false
				break
			}
			sc, err := balance(cv, cv.max)
			if err != nil {
				return nil, err
			}
			if sc.Degraded {
				clean = false
				break
			}
			ends[i] = sc
			if sc.Cost != 0 {
				clean = false
				break
			}
		}
		for i, cv := range curves {
			switch {
			case ends[i] == nil:
			case clean:
				cv.pts = append(cv.pts, curvePoint{cv.max, ends[i]})
				cv.ended = true
			default:
				cv.end = ends[i]
			}
		}
	}
	// Marginal-gain allocation with look-ahead (the cost curves need not be
	// convex): repeatedly advance the loop whose next profitable curve
	// point buys the largest cost reduction per global cycle spent. Points
	// are balanced as the scan reaches them, until the ratio bound c0/spend
	// shows that none further along can win the round (see the doc comment).
	for {
		best, bestJ := -1, 0
		bestRatio := 0.0
		for i, cv := range curves {
			c0, b0 := cv.pts[cv.chosen].sc.Cost, cv.pts[cv.chosen].budget
			for j := cv.chosen + 1; ; j++ {
				spend := uint64(cv.budgetAt(j)-b0) * cv.loop.Iterations
				if spend > remaining || c0/float64(spend) <= bestRatio+1e-12 {
					break
				}
				if j == len(cv.pts) {
					ok, err := extend(cv)
					if err != nil {
						return nil, err
					}
					if !ok {
						break
					}
				}
				gain := c0 - cv.pts[j].sc.Cost
				if gain <= 0 {
					continue
				}
				ratio := gain / float64(spend)
				if ratio > bestRatio+1e-12 {
					best, bestJ, bestRatio = i, j, ratio
				}
			}
		}
		if best < 0 {
			break
		}
		if canceled() {
			degraded = true // a profitable move existed but was skipped
			break
		}
		cv := curves[best]
		remaining -= uint64(cv.pts[bestJ].budget-cv.pts[cv.chosen].budget) * cv.loop.Iterations
		cv.chosen = bestJ
	}

	// A committed schedule that was itself cut short degrades the whole
	// distribution, even when every curve point and budget move ran: a
	// single-point curve under a dead context commits its (best-effort)
	// minimum schedule without tripping the sweep-level checks above.
	d := &Distribution{TotalBudget: totalBudget}
	for _, cv := range curves {
		sc := cv.pts[cv.chosen].sc
		if sc.Degraded {
			degraded = true
		}
		d.Loops = append(d.Loops, sc)
		d.Used += uint64(sc.Budget) * cv.loop.Iterations
		d.Cost += sc.Cost
	}
	d.Degraded = degraded
	d.Patterns = patternsOf(s, d.Loops, groups, p)
	if sp != nil {
		sp.SetInt("loops", int64(len(curves)))
		sp.SetInt("curve_points", int64(points))
		sp.SetInt("patterns", int64(len(d.Patterns)))
		sp.SetInt("conflict_groups", int64(len(RequiredPorts(d.Patterns))))
		sp.SetInt("used", int64(d.Used))
		sp.SetFloat("conflict_cost", d.Cost)
		sp.Observer().Counter(
			obs.Label("sbd.distributions", "pipelined", strconv.FormatBool(p.Pipelined))).Add(1)
		if degraded {
			sp.SetInt("degraded", 1)
			sp.Observer().Counter("sbd.deadline_fallbacks").Add(1)
		}
	}
	return d, nil
}
