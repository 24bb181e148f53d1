// Package reuse implements the data-reuse analysis and the custom memory
// hierarchy transformation of the paper's memory hierarchy decision step
// (§4.4, Figure 3).
//
// The analysis computes exact LRU stack distances of a profiled read
// address trace up to a depth its consumer chooses: the largest buffer
// size it will query. It keeps a recency window of that many most recently
// used addresses, not the whole trace, and runs chunk by chunk beside the
// instrumented application: a Stream is the trace.AddressSink of the traced
// array. The miss ratio of any candidate layer size up to the depth then
// follows from the distance histogram, and by LRU's inclusion property a
// stack of layers is analyzed with the same histogram. A query past the
// depth is an error.
//
// The transformation rewrites a specification for a chosen hierarchy: read
// sites of the target array are redirected to the innermost copy layer, and
// explicit copy transfers between adjacent layers are added with profiled
// (fractional) counts. This mirrors the paper's fully custom model: "every
// memory access can be explicitly directed to one specific memory hierarchy
// layer, and all copies from one layer to another can be expressed at
// compile time in the source code".
package reuse

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/spec"
)

// Profile is the reuse-distance histogram of a read address trace.
type Profile struct {
	// hist[d] counts accesses with stack distance d (1 = re-access with no
	// distinct intervening address). Index 0 is unused.
	hist  []uint64
	cold  uint64 // first-touch accesses (infinite distance)
	far   uint64 // distances beyond depth
	total uint64
	depth int // the largest buffer size MissRatio answers
}

// analyzeCheckInterval is the cancellation-poll stride of the stack-distance
// loop: with about 30-60 ns per position, 64Ki positions keep the deadline
// honored within ~4 ms, and the loop between two polls runs unchecked.
const analyzeCheckInterval = 64 * 1024

// Total returns the number of accesses in the trace.
func (p *Profile) Total() uint64 { return p.total }

// Cold returns the number of first-touch accesses.
func (p *Profile) Cold() uint64 { return p.cold }

// MissRatio returns the fraction of accesses that miss an LRU buffer of the
// given size (in words). It is exact up to the depth the stream was
// started with; a larger size is an error.
func (p *Profile) MissRatio(size int64) (float64, error) {
	if size > int64(p.depth) {
		return 0, fmt.Errorf("reuse: %d words is past the %d-word depth the profile tracks", size, p.depth)
	}
	if p.total == 0 {
		return 0, nil
	}
	if size <= 0 {
		return 1, nil
	}
	misses := p.cold + p.far
	for d := int(size) + 1; d < len(p.hist); d++ {
		misses += p.hist[d]
	}
	return float64(misses) / float64(p.total), nil
}

// Layer is one candidate copy layer, innermost (closest to the datapath)
// first.
type Layer struct {
	Name  string
	Words int64
}

// Hierarchy is a chosen memory hierarchy for one array: the evaluated
// variant the exploration step compares.
type Hierarchy struct {
	Array  string
	Layers []Layer // innermost first; empty = no hierarchy
	// MissRatios[i] is the fraction of the original reads that miss layer i
	// (and must be fetched from layer i+1 or the backing array).
	MissRatios []float64
}

// Plan derives a Hierarchy (with miss ratios) from a profile. Under a
// non-nil parent a "reuse.plan" span records the array, the candidate layer
// count and the innermost miss ratio; a nil parent records nothing.
func Plan(array string, layers []Layer, prof *Profile, parent *obs.Span) (*Hierarchy, error) {
	sp := parent.Child("reuse.plan")
	defer sp.End()
	h, err := plan(array, layers, prof)
	if sp != nil {
		sp.SetStr("array", array)
		sp.SetInt("layers", int64(len(layers)))
		if err == nil && len(h.MissRatios) > 0 {
			sp.SetFloat("inner_miss_ratio", h.MissRatios[0])
		}
		sp.Observer().Counter("reuse.plans").Add(1)
	}
	return h, err
}

func plan(array string, layers []Layer, prof *Profile) (*Hierarchy, error) {
	h := &Hierarchy{Array: array, Layers: layers}
	prev := int64(0)
	for _, l := range layers {
		if l.Words <= prev {
			return nil, fmt.Errorf("reuse: layer %q (%d words) not larger than inner layer (%d words)",
				l.Name, l.Words, prev)
		}
		prev = l.Words
		m, err := prof.MissRatio(l.Words)
		if err != nil {
			return nil, fmt.Errorf("reuse: layer %q (%d words) is past the %d-word depth the profile tracks",
				l.Name, l.Words, prof.depth)
		}
		h.MissRatios = append(h.MissRatios, m)
	}
	return h, nil
}

// Apply rewrites the specification for the hierarchy: every read site of
// the array (in every loop) is redirected to the innermost layer, and copy
// traffic is added per loop with counts proportional to the redirected
// reads. Writes to the backing array are left in place (write-through; the
// BTPC image array is read-dominated).
func Apply(s *spec.Spec, h *Hierarchy, bits int) (*spec.Spec, error) {
	if len(h.Layers) == 0 {
		return s.Clone(), nil
	}
	if _, ok := s.Group(h.Array); !ok {
		return nil, fmt.Errorf("reuse: unknown array %q", h.Array)
	}
	for _, l := range h.Layers {
		if _, exists := s.Group(l.Name); exists {
			return nil, fmt.Errorf("reuse: layer name %q collides with an existing group", l.Name)
		}
	}
	out := s.Clone()
	out.Name = fmt.Sprintf("%s+hier(%s:%d)", s.Name, h.Array, len(h.Layers))
	for _, l := range h.Layers {
		out.Groups = append(out.Groups, spec.BasicGroup{Name: l.Name, Words: l.Words, Bits: bits})
	}
	inner := h.Layers[0].Name
	for li := range out.Loops {
		l := &out.Loops[li]
		// Total redirected read count in this loop body.
		var redirected float64
		for i := range l.Accesses {
			a := &l.Accesses[i]
			if a.Group == h.Array && !a.Write {
				a.Group = inner
				redirected += a.Count
			}
		}
		if redirected == 0 {
			continue
		}
		// Copy traffic between adjacent layers: layer i is filled from
		// layer i+1 (or the backing array) at the miss rate of layer i.
		// Copies are prefetch-style: ordered read->write, no dependence to
		// the consumer sites.
		for i := range h.Layers {
			src := h.Array
			if i+1 < len(h.Layers) {
				src = h.Layers[i+1].Name
			}
			cnt := redirected * h.MissRatios[i]
			if cnt <= 0 {
				continue
			}
			rd := spec.Access{
				ID:    len(l.Accesses),
				Group: src,
				Count: cnt,
				Site:  fmt.Sprintf("copy:%s<-%s", h.Layers[i].Name, src),
			}
			l.Accesses = append(l.Accesses, rd)
			wr := spec.Access{
				ID:    len(l.Accesses),
				Group: h.Layers[i].Name,
				Write: true,
				Count: cnt,
				Deps:  []int{rd.ID},
				Site:  rd.Site,
			}
			l.Accesses = append(l.Accesses, wr)
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("reuse: hierarchy produced invalid spec: %w", err)
	}
	return out, nil
}

// Describe renders the hierarchy as a one-line summary (used in reports).
func (h *Hierarchy) Describe() string {
	if len(h.Layers) == 0 {
		return fmt.Sprintf("%s: no hierarchy", h.Array)
	}
	parts := make([]string, 0, len(h.Layers))
	for i, l := range h.Layers {
		parts = append(parts, fmt.Sprintf("%s(%dw, miss %.1f%%)", l.Name, l.Words, 100*h.MissRatios[i]))
	}
	return fmt.Sprintf("%s <- %s", h.Array, joinArrow(parts))
}

func joinArrow(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += " <- "
		}
		out += p
	}
	return out
}
