// Package looptrafo implements the global data-flow and loop
// transformations of the methodology's critical-path reduction step (§4.2).
// The paper applies them when the memory access critical path (MACP) is too
// long for the real-time constraint ("In this case, the loop
// transformations are essential") and cites the strategies of De Greef et
// al. and the DTSE book's chapter 8; BTPC itself did not need them, so the
// paper treats them as a preceding, separately-published step. This package
// provides the workhorse on the pruned-specification level: ChainTreeify
// rebalances a sequential chain of accesses (an accumulation) into a
// logarithmic-depth tree — the classic associativity-based data-flow
// transformation that shortens the MACP — and ReduceMACP applies it until
// the critical path fits.
//
// Both return modified clones and preserve per-frame access counts exactly;
// only the dependence structure (and hence the critical path) changes.
package looptrafo

import (
	"fmt"
	"sort"

	"repro/internal/dfg"
	"repro/internal/spec"
)

// findLoop returns the index of the named loop.
func findLoop(s *spec.Spec, name string) (int, error) {
	for i := range s.Loops {
		if s.Loops[i].Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("looptrafo: unknown loop %q", name)
}

// ChainTreeify rebalances the longest dependence chain of same-group
// accesses to group inside the named loop into a binary reduction tree.
// The caller asserts the chained operation is associative (an accumulation,
// a max-reduction, …) — the designer's judgement, as in the paper. The
// access set is unchanged; only dependence edges move.
func ChainTreeify(s *spec.Spec, loopName, group string) (*spec.Spec, error) {
	li, err := findLoop(s, loopName)
	if err != nil {
		return nil, err
	}
	out := s.Clone()
	out.Name = fmt.Sprintf("%s+treeify(%s,%s)", s.Name, loopName, group)
	l := &out.Loops[li]

	chain := longestChain(l, group)
	if len(chain) < 3 {
		return nil, fmt.Errorf("looptrafo: no chain of %q accesses longer than 2 in loop %q",
			group, loopName)
	}
	// External dependences: whatever the chain head depended on becomes the
	// dependence set of every tree node; whatever depended on any chain
	// member now depends on the tree root (the completed reduction).
	inChain := make(map[int]bool, len(chain))
	for _, id := range chain {
		inChain[id] = true
	}
	headDeps := filterOut(l.Accesses[chain[0]].Deps, inChain)

	// Heap-shaped balanced reduction: chain member k combines members
	// 2k+1 and 2k+2, so member 0 is the root and the depth drops from n
	// to ⌈log₂(n+1)⌉.
	for k, id := range chain {
		deps := append([]int(nil), headDeps...)
		if 2*k+1 < len(chain) {
			deps = append(deps, chain[2*k+1])
		}
		if 2*k+2 < len(chain) {
			deps = append(deps, chain[2*k+2])
		}
		sort.Ints(deps)
		l.Accesses[id].Deps = dedupe(deps)
	}
	root := chain[0]
	for ai := range l.Accesses {
		if inChain[ai] {
			continue
		}
		changed := false
		deps := l.Accesses[ai].Deps
		for di, d := range deps {
			if inChain[d] {
				deps[di] = root
				changed = true
			}
		}
		if changed {
			sort.Ints(deps)
			l.Accesses[ai].Deps = dedupe(deps)
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("looptrafo: treeify produced invalid spec: %w", err)
	}
	return out, nil
}

// longestChain returns the IDs (in order) of the longest path consisting
// solely of accesses to group linked by direct dependences.
func longestChain(l *spec.Loop, group string) []int {
	best := []int{}
	memo := make(map[int][]int)
	var chainFrom func(id int) []int
	chainFrom = func(id int) []int {
		if c, ok := memo[id]; ok {
			return c
		}
		var bestTail []int
		for _, a := range l.Accesses {
			if a.Group != group {
				continue
			}
			for _, d := range a.Deps {
				if d == id {
					if t := chainFrom(a.ID); len(t) > len(bestTail) {
						bestTail = t
					}
				}
			}
		}
		c := append([]int{id}, bestTail...)
		memo[id] = c
		return c
	}
	for _, a := range l.Accesses {
		if a.Group != group {
			continue
		}
		if c := chainFrom(a.ID); len(c) > len(best) {
			best = c
		}
	}
	return best
}

func filterOut(deps []int, drop map[int]bool) []int {
	var out []int
	for _, d := range deps {
		if !drop[d] {
			out = append(out, d)
		}
	}
	sort.Ints(out)
	return out
}

func dedupe(sorted []int) []int {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// ReduceMACP greedily applies ChainTreeify to the loops dominating the MACP
// until the unit critical path fits the target or no chain remains. A
// transformation is accepted whenever it shortens its group's chain — the
// loop's critical path may only drop after *every* parallel branch has been
// rebalanced, so chain progress (not CP progress) is the acceptance test.
// It returns the transformed spec and a log of the transformations applied.
func ReduceMACP(s *spec.Spec, target uint64) (*spec.Spec, []string, error) {
	cur := s.Clone()
	var log []string
	tried := make(map[string]bool) // loop|group pairs already rebalanced
	for dfg.MACP(cur) > target {
		// Loops ordered by decreasing CP × iterations contribution.
		order := make([]int, len(cur.Loops))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			sa := uint64(dfg.CriticalPath(&cur.Loops[order[a]])) * cur.Loops[order[a]].Iterations
			sb := uint64(dfg.CriticalPath(&cur.Loops[order[b]])) * cur.Loops[order[b]].Iterations
			return sa > sb
		})
		applied := false
		for _, li := range order {
			l := &cur.Loops[li]
			seen := make(map[string]bool)
			for _, a := range l.Accesses {
				g := a.Group
				if seen[g] {
					continue
				}
				seen[g] = true
				key := l.Name + "|" + g
				if tried[key] {
					continue
				}
				before := len(longestChain(l, g))
				if before < 3 {
					continue
				}
				next, err := ChainTreeify(cur, l.Name, g)
				tried[key] = true
				if err != nil {
					continue
				}
				after := len(longestChain(&next.Loops[li], g))
				if after >= before {
					continue
				}
				log = append(log, fmt.Sprintf("treeify %s in %s: chain %d -> %d (CP %d -> %d)",
					g, l.Name, before, after,
					dfg.CriticalPath(l), dfg.CriticalPath(&next.Loops[li])))
				cur = next
				applied = true
				break
			}
			if applied {
				break
			}
		}
		if !applied {
			break // nothing left to rebalance
		}
	}
	if dfg.MACP(cur) > target {
		return cur, log, fmt.Errorf("looptrafo: MACP %d still above target %d after %d transformations",
			dfg.MACP(cur), target, len(log))
	}
	return cur, log, nil
}
