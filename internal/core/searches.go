package core

import (
	"context"
	"encoding/binary"
	"slices"

	"repro/internal/assign"
	"repro/internal/memlib"
	"repro/internal/memo"
	"repro/internal/sbd"
	"repro/internal/spec"
)

// answer is one assignment search's result, as the run cache holds it.
type answer struct {
	a   *assign.Assignment
	err error
}

// assign is assign.AssignContext on the run's technology, through the run
// cache's Assignments keyspace: the steps of a run pose many identical
// assignment problems, and each distinct one is searched once. Without a
// run cache, or with the in-place extension (whose lifetimes the key
// leaves out), it searches directly. An answer a done context may have
// cut short is never stored. A shared answer still opens its assign span,
// marked shared, and adds no search nodes.
func (ep EvalParams) assign(ctx context.Context, s *spec.Spec, pats []sbd.Pattern, count int, p assign.Params) (*assign.Assignment, error) {
	if ep.memo == nil || p.InPlace {
		return assign.AssignContext(ctx, s, pats, ep.Tech, count, p)
	}
	searched := false
	v := ep.memo.Do(memo.Assignments, memo.NewKey(searchKey(s, pats, ep.Tech, count, p), 0), func() (any, bool) {
		searched = true
		a, err := assign.AssignContext(ctx, s, pats, ep.Tech, count, p)
		return answer{a, err}, ctx.Err() == nil
	})
	if !searched {
		sp := p.Obs.Child("assign")
		sp.SetInt("count", int64(count))
		sp.SetInt("shared", 1)
		sp.End()
		p.Progress.SetStage("assign")
	}
	ans := v.(answer)
	return ans.a, ans.err
}

// searchKey encodes everything the assignment search reads: the on-chip
// count, the node budget, each accessed group's name, words, bits and
// accesses per frame in spec order, and the pattern multiplicities
// restricted to the on-chip groups and, separately, to the off-chip
// groups. Each restricted set is sorted, with duplicates and all-zero rows
// dropped: a memory's ports are a maximum over the patterns and the twin
// rule tests membership in the pattern set, so neither reads the order or
// the repeats. Pattern weights stay out; the search never reads them.
func searchKey(s *spec.Spec, pats []sbd.Pattern, tech *memlib.Tech, count int, p assign.Params) []byte {
	acc := s.FrameAccesses()
	limit := tech.OnChipLimit()
	b := make([]byte, 0, 1024)
	b = binary.AppendVarint(b, int64(count))
	b = binary.AppendVarint(b, int64(p.NodeBudget))
	// One row per pattern: the on-chip groups' multiplicities in spec
	// order, then the off-chip groups'.
	var on, off []int
	for i, g := range s.Groups {
		if acc[i] == 0 {
			continue
		}
		if g.Words <= limit {
			on = append(on, i)
		} else {
			off = append(off, i)
		}
		b = binary.AppendUvarint(b, uint64(len(g.Name)))
		b = append(b, g.Name...)
		b = binary.AppendVarint(b, g.Words)
		b = binary.AppendVarint(b, int64(g.Bits))
		b = binary.AppendUvarint(b, acc[i])
	}
	w := len(on) + len(off)
	m := make([]int, len(pats)*w)
	for c, gi := range append(on, off...) {
		name := s.Groups[gi].Name
		for pi := range pats {
			m[pi*w+c] = pats[pi].Access[name]
		}
	}
	rows := make([][]int, 0, len(pats))
	b = appendRows(b, rows, m, w, 0, len(on))
	return appendRows(b, rows, m, w, len(on), w)
}

// appendRows appends the distinct nonzero rows of columns [lo, hi) of the
// flat width-wide matrix m, sorted, behind their count; rows is scratch.
func appendRows(b []byte, rows [][]int, m []int, width, lo, hi int) []byte {
	for r := 0; r < len(m); r += width {
		if row := m[r+lo : r+hi]; slices.ContainsFunc(row, func(k int) bool { return k != 0 }) {
			rows = append(rows, row)
		}
	}
	slices.SortFunc(rows, slices.Compare)
	rows = slices.CompactFunc(rows, slices.Equal)
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, row := range rows {
		for _, k := range row {
			b = binary.AppendVarint(b, int64(k))
		}
	}
	return b
}
