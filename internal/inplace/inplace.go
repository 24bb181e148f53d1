// Package inplace implements a lifetime-based in-place mapping estimator —
// the stage the paper defers ("the precise dimensions are only known after
// the in-place mapping stage, which falls out of the scope of this paper";
// Catthoor et al., chapter 12). It decides how much storage basic groups
// assigned to the same memory can share.
//
// The model matches the specification granularity: loop bodies execute in
// declaration order, a basic group is live from its first access to its
// last, and two groups may occupy the same addresses iff their live
// intervals are disjoint. The words a memory really needs are therefore the
// peak, over time, of the total live words of its member groups — instead
// of the plain sum the allocation step otherwise uses.
package inplace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/spec"
)

// Interval is a live range in loop-sequence positions (inclusive).
type Interval struct {
	First, Last int
}

// Overlaps reports whether two live ranges intersect.
func (iv Interval) Overlaps(o Interval) bool {
	return iv.First <= o.Last && o.First <= iv.Last
}

// Lifetimes returns the live interval of every accessed basic group, in
// loop-sequence positions. Groups never accessed are absent.
func Lifetimes(s *spec.Spec) map[string]Interval {
	out := make(map[string]Interval)
	for li := range s.Loops {
		for _, a := range s.Loops[li].Accesses {
			if a.Count <= 0 {
				continue
			}
			iv, seen := out[a.Group]
			if !seen {
				out[a.Group] = Interval{First: li, Last: li}
				continue
			}
			if li > iv.Last {
				iv.Last = li
				out[a.Group] = iv
			}
		}
	}
	return out
}

// PeakWords returns the storage a single memory needs for the given member
// groups with in-place sharing: the maximum over time of the live words.
// Members that are never accessed contribute nothing.
func PeakWords(s *spec.Spec, members []string) int64 {
	lt := Lifetimes(s)
	sizes := make(map[string]int64, len(members))
	for _, g := range s.Groups {
		sizes[g.Name] = g.Words
	}
	var peak int64
	for li := range s.Loops {
		var live int64
		for _, m := range members {
			iv, ok := lt[m]
			if !ok {
				continue
			}
			if iv.First <= li && li <= iv.Last {
				live += sizes[m]
			}
		}
		if live > peak {
			peak = live
		}
	}
	return peak
}

// SumWords returns the storage without in-place sharing (the allocation
// step's default).
func SumWords(s *spec.Spec, members []string) int64 {
	lt := Lifetimes(s)
	var sum int64
	for _, g := range s.Groups {
		if _, accessed := lt[g.Name]; !accessed {
			continue
		}
		for _, m := range members {
			if m == g.Name {
				sum += g.Words
			}
		}
	}
	return sum
}

// DisjointPairs lists the group pairs whose lifetimes do not overlap — the
// sharing opportunities a designer would inspect.
func DisjointPairs(s *spec.Spec) [][2]string {
	lt := Lifetimes(s)
	names := make([]string, 0, len(lt))
	for n := range lt {
		names = append(names, n)
	}
	sort.Strings(names)
	var out [][2]string
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if !lt[names[i]].Overlaps(lt[names[j]]) {
				out = append(out, [2]string{names[i], names[j]})
			}
		}
	}
	return out
}

// Report renders the lifetime table and sharing opportunities.
func Report(s *spec.Spec) string {
	lt := Lifetimes(s)
	names := make([]string, 0, len(lt))
	for n := range lt {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %8s %8s\n", "basic group", "words", "birth", "death")
	for _, n := range names {
		g, _ := s.Group(n)
		iv := lt[n]
		fmt.Fprintf(&b, "%-16s %10d %8s %8s\n", n, g.Words,
			s.Loops[iv.First].Name, s.Loops[iv.Last].Name)
	}
	pairs := DisjointPairs(s)
	if len(pairs) == 0 {
		fmt.Fprintf(&b, "no disjoint lifetimes: no inter-group in-place opportunity\n")
	} else {
		fmt.Fprintf(&b, "disjoint-lifetime pairs (may share storage):\n")
		for _, p := range pairs {
			fmt.Fprintf(&b, "  %s / %s\n", p[0], p[1])
		}
	}
	return b.String()
}
