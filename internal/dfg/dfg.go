// Package dfg provides the flow-graph analysis underlying the paper's
// critical-path step (§4.2) and the storage-cycle-budget distribution
// (§4.5): topological ordering of a loop body's accesses and the memory
// access critical path (MACP).
//
// The model follows the paper's abstraction: every memory access occupies
// one storage cycle, dependences between accesses of the same body demand
// sequentialism, and the minimal chain of dependences limits the achievable
// execution speed — "this is called the memory access critical path".
package dfg

import (
	"fmt"

	"repro/internal/scratch"
	"repro/internal/spec"
)

// Succs is the successor lists of a loop's dependence DAG in CSR form: one
// flat edge array plus per-access offsets. Each access's successors appear
// in the order of their accesses in the loop body.
type Succs struct {
	flat, off []int
}

// Of returns the successor IDs of access id. Its capacity ends at its
// length, so an append cannot overwrite the next access's list.
func (s Succs) Of(id int) []int {
	return s.flat[s.off[id]:s.off[id+1]:s.off[id+1]]
}

// TopoOrderScratch returns the access IDs of l in a topological order of
// the dependence DAG, and the successor lists it walked. The spec is
// assumed validated (acyclic). All working state (and the returned order
// and lists) is carved from the arena, so the budget-distribution inner
// loop — which re-derives orders constantly — allocates nothing. The
// results are only valid until the arena is reset; pass a nil arena for
// plain heap allocation.
func TopoOrderScratch(l *spec.Loop, a *scratch.Arena) ([]int, Succs) {
	n := len(l.Accesses)
	edges := 0
	for i := range l.Accesses {
		edges += len(l.Accesses[i].Deps)
	}
	indeg := a.Ints(n)
	off := a.Ints(n + 1)
	flat := a.Ints(edges)
	cur := a.Ints(n)
	for i := range l.Accesses {
		for _, d := range l.Accesses[i].Deps {
			cur[d]++
		}
	}
	sum := 0
	for i := 0; i < n; i++ {
		off[i] = sum
		sum += cur[i]
		cur[i] = off[i]
	}
	off[n] = sum
	for i := range l.Accesses {
		id := l.Accesses[i].ID
		for _, d := range l.Accesses[i].Deps {
			flat[cur[d]] = id
			cur[d]++
			indeg[id]++
		}
	}
	order := a.Ints(n)[:0]
	queue := a.Ints(n)
	head, tail := 0, 0
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue[tail] = i
			tail++
		}
	}
	for head < tail {
		v := queue[head]
		head++
		order = append(order, v)
		for _, s := range flat[off[v]:off[v+1]] {
			if indeg[s]--; indeg[s] == 0 {
				queue[tail] = s
				tail++
			}
		}
	}
	if len(order) != n {
		panic(fmt.Sprintf("dfg: loop %q has a dependence cycle", l.Name))
	}
	return order, Succs{flat, off}
}

// CriticalPath returns the length (in storage cycles) of the longest
// dependence chain in the loop body: the minimum per-iteration cycle
// budget for which a feasible access ordering exists.
func CriticalPath(l *spec.Loop) int {
	if len(l.Accesses) == 0 {
		return 0
	}
	a := scratch.Get()
	defer scratch.Put(a)
	depth := a.Ints(len(l.Accesses))
	longest := 0
	order, _ := TopoOrderScratch(l, a)
	for _, id := range order {
		d := 1
		for _, dep := range l.Accesses[id].Deps {
			if depth[dep]+1 > d {
				d = depth[dep] + 1
			}
		}
		depth[id] = d
		if d > longest {
			longest = d
		}
	}
	return longest
}

// MACP returns the memory access critical path of the whole specification:
// the minimum number of storage cycles per frame, obtained by executing
// every loop body at its per-iteration critical path.
func MACP(s *spec.Spec) uint64 {
	var total uint64
	for i := range s.Loops {
		total += uint64(CriticalPath(&s.Loops[i])) * s.Loops[i].Iterations
	}
	return total
}
