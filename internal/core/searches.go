package core

import (
	"context"
	"encoding/binary"
	"slices"
	"sync"

	"repro/internal/assign"
	"repro/internal/memlib"
	"repro/internal/sbd"
	"repro/internal/spec"
)

// searchTable shares assignment answers within one methodology run. The
// steps of a run pose many identical assignment problems: the structuring
// winner comes back as the no-hierarchy variant, and budget points whose
// schedules leave the same conflict patterns pose one problem. The table
// runs each distinct problem's search once; a caller that asks while the
// search runs waits for it. Answers a context cut short are never shared.
type searchTable struct {
	tech *memlib.Tech // the run's technology; other calls bypass the table
	mu   sync.Mutex
	m    map[string]*search
}

// search is one problem's answer; a, err and cut are set before done
// closes.
type search struct {
	done chan struct{}
	a    *assign.Assignment
	err  error
	cut  bool // the context ended during the search: not shared
}

func newSearchTable(tech *memlib.Tech) *searchTable {
	return &searchTable{tech: tech, m: make(map[string]*search)}
}

// assign is assign.AssignContext through the table. A nil table, another
// technology or the in-place extension (whose lifetimes the key leaves
// out) searches directly. A shared answer still opens its assign span,
// marked shared, and adds no search nodes.
func (t *searchTable) assign(ctx context.Context, s *spec.Spec, pats []sbd.Pattern, tech *memlib.Tech, count int, p assign.Params) (*assign.Assignment, error) {
	if t == nil || tech != t.tech || p.InPlace {
		return assign.AssignContext(ctx, s, pats, tech, count, p)
	}
	key := searchKey(s, pats, tech, count, p)
	t.mu.Lock()
	e, found := t.m[key]
	if !found {
		e = &search{done: make(chan struct{})}
		t.m[key] = e
	}
	t.mu.Unlock()
	if !found {
		e.a, e.err = assign.AssignContext(ctx, s, pats, tech, count, p)
		if ctx.Err() != nil {
			e.cut = true
			t.mu.Lock()
			delete(t.m, key)
			t.mu.Unlock()
		}
		close(e.done)
		return e.a, e.err
	}
	<-e.done
	if e.cut {
		return assign.AssignContext(ctx, s, pats, tech, count, p)
	}
	sp := p.Obs.Child("assign")
	sp.SetInt("count", int64(count))
	sp.SetInt("shared", 1)
	sp.End()
	p.Progress.SetStage("assign")
	return e.a, e.err
}

// searchKey encodes everything the assignment search reads: the on-chip
// count, the search limits, each accessed group's name, words, bits and
// accesses per frame in spec order, and the pattern multiplicities
// restricted to the on-chip groups and, separately, to the off-chip
// groups. Each restricted set is sorted, with duplicates and all-zero rows
// dropped: a memory's ports are a maximum over the patterns and the twin
// rule tests membership in the pattern set, so neither reads the order or
// the repeats. Pattern weights stay out; the search never reads them.
func searchKey(s *spec.Spec, pats []sbd.Pattern, tech *memlib.Tech, count int, p assign.Params) string {
	acc := s.FrameAccesses()
	limit := tech.OnChipLimit()
	b := make([]byte, 0, 1024)
	b = binary.AppendVarint(b, int64(count))
	b = binary.AppendVarint(b, int64(p.MaxPorts))
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
	return string(appendRows(b, rows, m, w, len(on), w))
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
