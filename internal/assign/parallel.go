// Multicore search: the parallel branch-and-bound and the parallel
// off-chip partition scan.
//
// Both searches split their tree at the top levels into independent
// subproblems — the depth-k frontier of the *sequential* search tree, in
// canonical DFS order — and let pool workers pull subproblems from a shared
// counter. Determinism at any worker count rests on three rules:
//
//  1. A worker's own incumbent (localBest) is updated with strict <, and
//     its subtree is pruned with >= localBest — exactly the sequential
//     rules, so within one subproblem the recorded solution is the
//     DFS-first cheapest one.
//  2. The shared incumbent bound only ever prunes with strict >, so a
//     subtree that could still contain a solution of globally minimal cost
//     is never cut by another worker's progress; racing on the bound can
//     only change how much work is done, never which solution wins.
//  3. The merge picks the minimum cost, breaking float ties by the lowest
//     subproblem index (the greedy incumbent sits at index -1). Because a
//     worker drains subproblem indices in increasing order, the candidate
//     it records for the lowest optimum-bearing subproblem is exactly the
//     solution the sequential DFS would have kept.
//
// Cost floats compare bitwise-equal across modes because every path
// accumulates its cost through the same code in the same order
// (bbPrecompute, greedyIncumbent, push/onChipCost, partitionPower are all
// shared with the sequential search). Under cancellation or node-budget
// exhaustion the search stays anytime — the best incumbent so far is
// returned with Optimal=false — but the visiting order is then
// timing-dependent, so byte-identical results are guaranteed only for
// completed searches (Optimal=true), in either mode.
package assign

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/pool"
)

const (
	// minParallelGroups gates the parallel branch-and-bound: below this many
	// groups the sequential search finishes in microseconds and splitting
	// costs more than it saves.
	minParallelGroups = 4
	// minParallelBudget keeps tiny node budgets on the sequential path,
	// whose per-node budget check is exact (Greedy passes budget 1 to stop
	// the exact search immediately); the parallel workers check the shared
	// budget only in batches and would overshoot such budgets.
	minParallelBudget = 4096
	// minParallelOffChip gates the parallel off-chip partition scan.
	minParallelOffChip = 4
	// nodeFlushBatch is how many nodes a worker explores between flushes of
	// its node count into the shared budget counter (and checks of the
	// shared stop state). The budget can be overshot by at most
	// workers×nodeFlushBatch nodes — anytime semantics absorb that.
	nodeFlushBatch = 256
	// maxSubproblems caps the split frontier; beyond ~4 subproblems per
	// worker the scheduling overhead buys no extra load balance.
	maxSubproblems = 1024
)

// Shared stop state bits (bbShared.state).
const (
	stopBit      = 1 << 0 // ctx deadline/cancellation hit
	exhaustedBit = 1 << 1 // shared node budget exceeded
)

// bbShared is the state the branch-and-bound workers race on.
type bbShared struct {
	// bound holds math.Float64bits of the incumbent cost. For non-negative
	// floats the bit pattern orders like the value, so tightening the bound
	// is a single-word CAS-min.
	bound   atomic.Uint64
	races   atomic.Int64 // CAS retries while tightening (incumbent races)
	nodes   atomic.Int64 // nodes visited session-wide, flushed in batches
	state   atomic.Uint32
	nextSub atomic.Int64 // next subproblem index to hand out
}

// setState ORs a stop bit into the shared state (CAS loop; the atomic Or
// method needs a newer language version than this module targets).
func (sh *bbShared) setState(bit uint32) {
	for {
		cur := sh.state.Load()
		if cur&bit != 0 {
			return
		}
		if sh.state.CompareAndSwap(cur, cur|bit) {
			return
		}
	}
}

// tighten lowers the shared incumbent bound to c if c is smaller, counting
// the CAS retries lost to concurrent improvements.
func (sh *bbShared) tighten(c float64) {
	bits := math.Float64bits(c)
	for {
		cur := sh.bound.Load()
		if bits >= cur {
			return
		}
		if sh.bound.CompareAndSwap(cur, bits) {
			return
		}
		sh.races.Add(1)
	}
}

// bbPrefixes enumerates the depth-k frontier of the sequential search tree:
// every way to assign the first k groups (in decision order) to memories,
// applying the same symmetry-breaking, must-open, port-feasibility, and
// lower-bound rules the sequential dfs applies, with bound (the greedy
// incumbent) as the pruning incumbent. Prefixes come out in canonical DFS
// order; visited counts the nodes expanded.
func bbPrefixes(pr *problem, maxMem, k int, pre *bbPre, bound float64, mems []*memState) (prefixes [][]int16, visited int) {
	n := len(pr.groups)
	for i := range mems {
		mems[i].reset()
	}
	memCost := make([]float64, maxMem)
	var curCost float64
	emptyCnt := maxMem
	cur := make([]int16, k)
	var rec func(step int)
	rec = func(step int) {
		visited++
		if curCost+pre.lbTail[step]+float64(emptyCnt)*pre.emptyTerm >= bound {
			return
		}
		if step == k {
			prefixes = append(prefixes, append([]int16(nil), cur...))
			return
		}
		gi := pre.order[step]
		mustOpen := n-step <= emptyCnt
		for m := 0; m < maxMem; m++ {
			if mems[m].nGroups == 0 && m > 0 && mems[m-1].nGroups == 0 {
				break // symmetry breaking: open memories left to right
			}
			if mustOpen && mems[m].nGroups > 0 {
				continue
			}
			wasEmpty := mems[m].nGroups == 0
			u := mems[m].push(pr, gi)
			area, power, err := pr.onChipCost(mems[m])
			if err == nil {
				if wasEmpty {
					emptyCnt--
				}
				oldCost := memCost[m]
				memCost[m] = power + areaWeight*area
				curCost += memCost[m] - oldCost
				cur[step] = int16(m)
				rec(step + 1)
				curCost -= memCost[m] - oldCost
				memCost[m] = oldCost
				if wasEmpty {
					emptyCnt++
				}
			}
			mems[m].pop(pr, gi, u)
		}
	}
	rec(0)
	return prefixes, visited
}

// chooseSplit deepens the split frontier until there are enough subproblems
// to keep the pool busy (~4 per worker), leaving at least one undecided
// level for the workers.
func chooseSplit(pr *problem, maxMem int, pre *bbPre, bound float64, workers int) (prefixes [][]int16, depth, visited int) {
	n := len(pr.groups)
	target := 4 * workers
	if target > maxSubproblems {
		target = maxSubproblems
	}
	mems := newMemStates(pr, maxMem)
	for k := 1; k <= n-1; k++ {
		p, v := bbPrefixes(pr, maxMem, k, pre, bound, mems)
		visited += v
		prefixes, depth = p, k
		if len(p) == 0 || len(p) >= target {
			break
		}
	}
	return prefixes, depth, visited
}

// bbWorker is one pool worker's private search state: its own memory
// aggregates, undo-free replay buffers, incumbent, and counters. Nothing
// here is shared; workers meet only at bbShared.
type bbWorker struct {
	pr     *problem
	pre    *bbPre
	sh     *bbShared
	maxMem int
	n      int
	budget int64
	done   <-chan struct{}
	prog   *obs.Progress

	mems      []*memState
	memCost   []float64
	curAssign []int
	curCost   float64
	emptyCnt  int

	found      bool
	bestCost   float64 // localBest: seeded with the greedy cost
	bestAssign []int
	bestSub    int // subproblem index of the recorded best

	nodes        int64
	unflushed    int64
	prunedLB     int64
	portRejects  int64
	cancelChecks int64
	halted       bool
}

func newBBWorker(pr *problem, pre *bbPre, sh *bbShared, maxMem int, bound float64, done <-chan struct{}) *bbWorker {
	n := len(pr.groups)
	return &bbWorker{
		pr: pr, pre: pre, sh: sh, maxMem: maxMem, n: n,
		budget:     int64(pr.p.NodeBudget),
		done:       done,
		prog:       pr.p.Progress,
		mems:       newMemStates(pr, maxMem),
		memCost:    make([]float64, maxMem),
		curAssign:  make([]int, n),
		bestCost:   bound,
		bestAssign: make([]int, n),
		bestSub:    math.MaxInt,
	}
}

// run drains subproblem indices from the shared counter until the frontier
// is empty or the search is stopped. Indices arrive in increasing order per
// worker — the property the deterministic merge relies on.
func (w *bbWorker) run(prefixes [][]int16) {
	for !w.halted {
		if w.sh.state.Load() != 0 {
			return
		}
		idx := int(w.sh.nextSub.Add(1)) - 1
		if idx >= len(prefixes) {
			return
		}
		w.solve(idx, prefixes[idx])
	}
}

// solve replays one prefix onto fresh state and searches its subtree. The
// replay goes through the same push/onChipCost sequence as the sequential
// descent, so curCost at depth k is bitwise identical to the sequential
// curCost at the same node.
func (w *bbWorker) solve(idx int, prefix []int16) {
	for i := range w.mems {
		w.mems[i].reset()
		w.memCost[i] = 0
	}
	w.curCost = 0
	w.emptyCnt = w.maxMem
	for step, m16 := range prefix {
		m := int(m16)
		gi := w.pre.order[step]
		wasEmpty := w.mems[m].nGroups == 0
		w.mems[m].push(w.pr, gi)
		area, power, err := w.pr.onChipCost(w.mems[m])
		if err != nil {
			return // unreachable: the frontier only contains feasible prefixes
		}
		if wasEmpty {
			w.emptyCnt--
		}
		oldCost := w.memCost[m]
		w.memCost[m] = power + areaWeight*area
		w.curCost += w.memCost[m] - oldCost
		w.curAssign[gi] = m
	}
	w.dfs(len(prefix), idx)
}

// dfs is the sequential dfs with the incumbent split in two: the local best
// prunes with >= (DFS-first semantics), the shared bound with strict > (so
// no other worker's progress can cut a potential co-optimal solution).
func (w *bbWorker) dfs(step, subIdx int) {
	if w.halted {
		return
	}
	w.nodes++
	w.unflushed++
	if w.unflushed >= nodeFlushBatch {
		if w.sh.nodes.Add(w.unflushed) > w.budget {
			w.sh.setState(exhaustedBit)
		}
		w.prog.AddNodes(w.unflushed)
		w.unflushed = 0
		if w.sh.state.Load() != 0 {
			w.halted = true
			return
		}
	}
	if w.done != nil && w.nodes%cancelCheckInterval == 0 {
		w.cancelChecks++
		select {
		case <-w.done:
			w.sh.setState(stopBit)
			w.halted = true
			return
		default:
		}
	}
	if step == w.n {
		if w.curCost < w.bestCost {
			w.bestCost = w.curCost
			copy(w.bestAssign, w.curAssign)
			w.bestSub = subIdx
			w.found = true
			w.sh.tighten(w.curCost)
			w.prog.SetIncumbent(math.Float64frombits(w.sh.bound.Load()))
		}
		return
	}
	v := w.curCost + w.pre.lbTail[step] + float64(w.emptyCnt)*w.pre.emptyTerm
	if v >= w.bestCost || v > math.Float64frombits(w.sh.bound.Load()) {
		w.prunedLB++
		return
	}
	gi := w.pre.order[step]
	mustOpen := w.n-step <= w.emptyCnt
	for m := 0; m < w.maxMem; m++ {
		if w.mems[m].nGroups == 0 && m > 0 && w.mems[m-1].nGroups == 0 {
			break // symmetry breaking: open memories left to right
		}
		if mustOpen && w.mems[m].nGroups > 0 {
			continue // every allocated memory must end up used
		}
		wasEmpty := w.mems[m].nGroups == 0
		u := w.mems[m].push(w.pr, gi)
		area, power, err := w.pr.onChipCost(w.mems[m])
		if err == nil {
			if wasEmpty {
				w.emptyCnt--
			}
			oldCost := w.memCost[m]
			w.memCost[m] = power + areaWeight*area
			w.curCost += w.memCost[m] - oldCost
			w.curAssign[gi] = m
			w.dfs(step+1, subIdx)
			w.curCost -= w.memCost[m] - oldCost
			w.memCost[m] = oldCost
			if wasEmpty {
				w.emptyCnt++
			}
		} else {
			w.portRejects++
		}
		w.mems[m].pop(w.pr, gi, u)
	}
}

// branchAndBoundParallel is branchAndBound split over the worker pool:
// subproblems are the depth-k frontier of the sequential tree, the
// incumbent bound is shared through a CAS-min atomic, and the merge is
// deterministic by (cost, canonical subproblem index). Completed searches
// return byte-identical results to the sequential path at any worker count.
func branchAndBoundParallel(ctx context.Context, pr *problem, maxMem int, sp *obs.Span, wp *pool.Pool) ([]Binding, float64, float64, bool, error) {
	pre := pr.bbPrecompute()
	prog := pr.p.Progress
	prog.SetBound(pre.lbTail[0] + float64(maxMem)*pre.emptyTerm)
	gAssign, gCost, gOK := greedyIncumbent(pr, maxMem, &pre)
	bound := math.Inf(1)
	if gOK {
		bound = gCost
		prog.SetIncumbent(gCost)
	}

	stopped := false
	done := ctx.Done()
	var cancelChecks int64
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

	var prefixes [][]int16
	depth, visited := 0, 0
	if !stopped {
		prefixes, depth, visited = chooseSplit(pr, maxMem, &pre, bound, wp.Workers())
	}

	sh := &bbShared{}
	sh.bound.Store(math.Float64bits(bound))
	sh.nodes.Store(int64(visited))
	exhausted := visited > pr.p.NodeBudget
	nw := wp.Workers()
	if nw > len(prefixes) {
		nw = len(prefixes)
	}
	workers := make([]*bbWorker, nw)
	if nw > 0 && !stopped && !exhausted {
		for i := range workers {
			workers[i] = newBBWorker(pr, &pre, sh, maxMem, bound, done)
		}
		wp.ForEach(ctx, nw, func(i int) { workers[i].run(prefixes) })
	}

	// Deterministic merge: minimum cost, float ties broken by the lowest
	// canonical subproblem index; the greedy incumbent sits at index -1
	// (workers record only strict improvements over it).
	bestCost := math.Inf(1)
	var bestAssign []int
	bestSub := math.MaxInt
	if gOK {
		bestCost, bestAssign, bestSub = gCost, gAssign, -1
	}
	nodes := int64(visited)
	prog.AddNodes(int64(visited))
	var prunedLB, portRejects int64
	for _, w := range workers {
		if w == nil {
			continue
		}
		nodes += w.nodes
		prog.AddNodes(w.unflushed)
		prunedLB += w.prunedLB
		portRejects += w.portRejects
		cancelChecks += w.cancelChecks
		if w.found && (w.bestCost < bestCost || (w.bestCost == bestCost && w.bestSub < bestSub)) {
			bestCost, bestAssign, bestSub = w.bestCost, w.bestAssign, w.bestSub
		}
	}
	st := sh.state.Load()
	exhausted = exhausted || st&exhaustedBit != 0
	stopped = stopped || st&stopBit != 0

	if sp != nil {
		sp.SetInt("nodes", nodes)
		sp.SetInt("pruned_bound", prunedLB)
		sp.SetInt("port_rejections", portRejects)
		sp.SetInt("subtree_splits", int64(len(prefixes)))
		sp.SetInt("split_depth", int64(depth))
		opt := int64(1)
		if exhausted || stopped {
			opt = 0
		}
		sp.SetInt("optimal", opt)
		o := sp.Observer()
		o.Counter("assign.nodes").Add(nodes)
		o.Counter("assign.pruned_bound").Add(prunedLB)
		o.Counter("assign.port_rejections").Add(portRejects)
		o.Counter("assign.subtree_splits").Add(int64(len(prefixes)))
		if r := sh.races.Load(); r > 0 {
			o.Counter("assign.incumbent_races").Add(r)
		}
		if cancelChecks > 0 {
			o.Counter("assign.cancel_points").Add(cancelChecks)
		}
		if stopped {
			o.Counter("assign.deadline_fallbacks").Add(1)
		}
	}
	if math.IsInf(bestCost, 1) {
		return nil, 0, 0, false, fmt.Errorf(
			"assign: no feasible on-chip assignment with %d memories (conflicts demand more)", maxMem)
	}
	binds, totalArea, totalPower, err := materializeOnChip(pr, maxMem, bestAssign)
	if err != nil {
		return nil, 0, 0, false, err
	}
	return binds, totalArea, totalPower, !exhausted && !stopped, nil
}

// offShared is the state the off-chip partition workers share.
type offShared struct {
	nextSub atomic.Int64
	found   atomic.Bool // some worker holds a feasible packing
	stop    atomic.Bool // ctx done observed (only honored once found)
}

// offWorker is one worker of the parallel set-partition scan.
type offWorker struct {
	pr   *problem
	n    int
	sh   *offShared
	done <-chan struct{}

	assignTo []int
	curSub   int

	found     bool
	bestPower float64
	bestParts [][]int
	bestSub   int

	partitions   int64
	cancelChecks int64
	halted       bool
}

// rgsPrefixes enumerates all restricted-growth prefixes of the given depth
// — the depth-d frontier of the sequential partition enumeration, in
// canonical order.
func rgsPrefixes(n, depth int) [][]int16 {
	var out [][]int16
	cur := make([]int16, depth)
	var rec func(i int, used int16)
	rec = func(i int, used int16) {
		if i == depth {
			out = append(out, append([]int16(nil), cur...))
			return
		}
		for m := int16(0); m <= used && int(m) < n; m++ {
			cur[i] = m
			nu := used
			if m == used {
				nu++
			}
			rec(i+1, nu)
		}
	}
	rec(0, 0)
	return out
}

func (w *offWorker) run(prefixes [][]int16) {
	for !w.halted && !w.sh.stop.Load() {
		idx := int(w.sh.nextSub.Add(1)) - 1
		if idx >= len(prefixes) {
			return
		}
		w.solve(idx, prefixes[idx])
	}
}

func (w *offWorker) solve(idx int, prefix []int16) {
	used := 0
	for i, m := range prefix {
		w.assignTo[i] = int(m)
		if int(m) == used {
			used++
		}
	}
	w.curSub = idx
	w.rec(len(prefix), used)
}

// rec completes the partition from position i, pricing each complete
// partition exactly as the sequential scan does. Cancellation is honored
// only once a feasible packing exists somewhere (the sequential contract:
// a feasible problem always yields a result).
func (w *offWorker) rec(i, used int) {
	if w.halted {
		return
	}
	if i == w.n {
		w.partitions++
		if w.partitions%cancelCheckInterval == 0 {
			if w.sh.stop.Load() {
				w.halted = true
				return
			}
			if w.done != nil && (w.found || w.sh.found.Load()) {
				w.cancelChecks++
				select {
				case <-w.done:
					w.sh.stop.Store(true)
					w.halted = true
					return
				default:
				}
			}
		}
		parts, total, feasible := w.pr.partitionPower(w.assignTo, used)
		if !feasible {
			return
		}
		if total < w.bestPower {
			w.bestPower = total
			w.bestParts = parts
			w.bestSub = w.curSub
			w.found = true
			w.sh.found.Store(true)
		}
		return
	}
	for m := 0; m <= used && m < w.n; m++ {
		w.assignTo[i] = m
		nu := used
		if m == used {
			nu++
		}
		w.rec(i+1, nu)
	}
}

// bestOffChipParallel splits the set-partition scan over the worker pool at
// a restricted-growth-string prefix frontier. There is nothing to prune in
// this exhaustive scan, so workers share only the subproblem counter and
// the stop state; the merge is deterministic by (power, prefix index).
func bestOffChipParallel(ctx context.Context, pr *problem, sp *obs.Span, wp *pool.Pool) ([]Binding, float64, bool, error) {
	n := len(pr.groups)
	depth := 1
	prefixes := rgsPrefixes(n, depth)
	for len(prefixes) < 2*wp.Workers() && depth < n-1 {
		depth++
		prefixes = rgsPrefixes(n, depth)
	}
	nw := wp.Workers()
	if nw > len(prefixes) {
		nw = len(prefixes)
	}
	sh := &offShared{}
	ws := make([]*offWorker, nw)
	for i := range ws {
		ws[i] = &offWorker{
			pr: pr, n: n, sh: sh, done: ctx.Done(),
			assignTo:  make([]int, n),
			bestPower: math.Inf(1),
			bestSub:   math.MaxInt,
		}
	}
	wp.ForEach(ctx, nw, func(i int) { ws[i].run(prefixes) })

	bestPower := math.Inf(1)
	var bestParts [][]int
	bestSub := math.MaxInt
	var partitions, cancelChecks int64
	for _, w := range ws {
		partitions += w.partitions
		cancelChecks += w.cancelChecks
		if w.found && (w.bestPower < bestPower || (w.bestPower == bestPower && w.bestSub < bestSub)) {
			bestPower, bestParts, bestSub = w.bestPower, w.bestParts, w.bestSub
		}
	}
	stopped := sh.stop.Load()
	sp.SetInt("offchip_partitions", partitions)
	sp.SetInt("offchip_splits", int64(len(prefixes)))
	if o := sp.Observer(); o != nil {
		o.Counter("assign.subtree_splits").Add(int64(len(prefixes)))
		if cancelChecks > 0 {
			o.Counter("assign.cancel_points").Add(cancelChecks)
		}
		if stopped {
			o.Counter("assign.deadline_fallbacks").Add(1)
		}
	}
	if math.IsInf(bestPower, 1) {
		return nil, 0, false, fmt.Errorf("assign: no feasible off-chip packing (port demand exceeds %d)", pr.p.MaxPorts)
	}
	binds, err := offChipBinds(pr, bestParts)
	if err != nil {
		return nil, 0, false, err
	}
	return binds, bestPower, !stopped, nil
}
