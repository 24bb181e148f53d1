package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// StatsTable renders the per-step summary of a span record set: the direct
// children of the longest root span, in execution order, with subtree span
// counts, wall time, share of the root, and allocation volume. Children
// with the same name (e.g. repeated evaluations) are merged into one row.
// This is what cmd/dtse -stats prints to stderr.
func StatsTable(recs []*SpanRecord) string {
	if len(recs) == 0 {
		return "(no spans recorded)\n"
	}
	var root *SpanRecord
	for _, r := range recs {
		if r.Parent == 0 && (root == nil || r.WallUS > root.WallUS) {
			root = r
		}
	}
	if root == nil {
		root = recs[0] // orphaned records: summarize around the first
	}
	children := make(map[uint64][]*SpanRecord)
	for _, r := range recs {
		children[r.Parent] = append(children[r.Parent], r)
	}
	var subtree func(id uint64) int
	subtree = func(id uint64) int {
		n := 1
		for _, c := range children[id] {
			n += subtree(c.ID)
		}
		return n
	}

	type row struct {
		name         string
		spans, count int
		wallUS       int64
		alloc        uint64
	}
	byName := make(map[string]*row)
	var rows []*row
	direct := append([]*SpanRecord(nil), children[root.ID]...)
	sort.Slice(direct, func(i, j int) bool { return direct[i].StartUS < direct[j].StartUS })
	for _, c := range direct {
		r := byName[c.Name]
		if r == nil {
			r = &row{name: c.Name}
			byName[c.Name] = r
			rows = append(rows, r)
		}
		r.count++
		r.spans += subtree(c.ID)
		r.wallUS += c.WallUS
		r.alloc += c.AllocBytes
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %6s %6s %12s %7s %10s\n", "step", "calls", "spans", "wall", "%", "alloc")
	var sumUS int64
	for _, r := range rows {
		pct := 0.0
		if root.WallUS > 0 {
			pct = 100 * float64(r.wallUS) / float64(root.WallUS)
		}
		sumUS += r.wallUS
		fmt.Fprintf(&b, "%-20s %6d %6d %12s %6.1f%% %10s\n",
			r.name, r.count, r.spans, fmtUS(r.wallUS), pct, fmtBytes(r.alloc))
	}
	pct := 0.0
	if root.WallUS > 0 {
		pct = 100 * float64(sumUS) / float64(root.WallUS)
	}
	fmt.Fprintf(&b, "%-20s %6s %6d %12s %6.1f%% %10s\n",
		"total ("+root.Name+")", "", subtree(root.ID), fmtUS(root.WallUS), pct, fmtBytes(root.AllocBytes))
	return b.String()
}

// HistTable renders the histogram summary of a snapshot: the per-stage
// span-duration histograms and any explicit histograms (memo lookups, pool
// tasks), one row each with count, bucket-bound quantile estimates, max,
// and total time. The -stats companion to StatsTable for stages that run
// many times, where a single wall-time sum hides the distribution.
func HistTable(snap Snapshot) string {
	rows := make(map[string]HistogramSnapshot, len(snap.Stages)+len(snap.Histograms))
	for n, h := range snap.Stages {
		rows[n] = h
	}
	for n, h := range snap.Histograms {
		rows[n] = h
	}
	if len(rows) == 0 {
		return "(no histograms recorded)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %8s %10s %10s %10s %10s %12s\n",
		"histogram", "count", "p50", "p90", "p99", "max", "total")
	for _, n := range sortedKeys(rows) {
		h := rows[n]
		fmt.Fprintf(&b, "%-36s %8d %10s %10s %10s %10s %12s\n",
			n, h.Count, fmtUS(h.P50US), fmtUS(h.P90US), fmtUS(h.P99US), fmtUS(h.MaxUS), fmtUS(h.SumUS))
	}
	return b.String()
}

// CounterTable renders every counter and gauge of a snapshot, one sorted
// row each: the search effort behind the times above (branch-and-bound
// nodes, balancer passes and trial placements, cache traffic).
func CounterTable(snap Snapshot) string {
	if len(snap.Counters)+len(snap.Gauges) == 0 {
		return "(no counters recorded)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %14s\n", "counter", "value")
	for _, m := range []map[string]int64{snap.Counters, snap.Gauges} {
		for _, n := range sortedKeys(m) {
			fmt.Fprintf(&b, "%-44s %14d\n", n, m[n])
		}
	}
	return b.String()
}

func fmtUS(us int64) string {
	return time.Duration(us * int64(time.Microsecond)).Round(10 * time.Microsecond).String()
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
