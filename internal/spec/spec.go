// Package spec defines the pruned application specification that the
// paper's exploration steps operate on (§4.1).
//
// After pruning, an application is reduced to what matters for the memory
// organization: the basic groups (arrays treated as atomic units of storage
// and assignment), and the loop bodies with their memory accesses,
// dependence relations and profiled execution counts. Scalar processing and
// loops that "hardly contribute to the total cycle count" are not
// represented — exactly the abstraction the paper prescribes.
package spec

import (
	"fmt"
	"math"
	"sort"
)

// BasicGroup is an atomic unit of storage: it is ordered and stored
// independently of every other basic group, and always assigned to a memory
// as a whole (§4.1).
type BasicGroup struct {
	Name  string
	Words int64 // number of addressable words
	Bits  int   // width of one word
}

// BitSize returns the total payload size in bits.
func (g BasicGroup) BitSize() int64 { return g.Words * int64(g.Bits) }

// Access is one memory access site inside a loop body.
type Access struct {
	ID    int     // unique within the loop body, dense from 0
	Group string  // accessed basic group
	Write bool    // write access (false = read)
	Count float64 // average executions per body iteration (profiled;
	// data-dependent conditionals make this fractional)
	Deps []int // IDs of same-body accesses that must complete first
	// Site optionally tags the source location. Accesses of different
	// groups carrying the same site tag are co-indexed (same index
	// expression at the same statement) — the information basic group
	// merging needs (§4.3).
	Site string
	// Branch optionally names the conditional branch the access executes
	// under. Accesses with different non-empty Branch tags are mutually
	// exclusive: they may share storage cycles without conflicting, and
	// never demand simultaneous memory ports. Data-dependent conditionals
	// (e.g. BTPC's six alternative Huffman coders) are modeled this way.
	Branch string
}

// Loop is one loop body after flattening: Iterations is the total number of
// body executions per frame (nesting folded in), which is the granularity
// at which the paper's storage-cycle-budget distribution works.
type Loop struct {
	Name       string
	Iterations uint64
	Accesses   []Access
}

// AccessesPerIteration returns the expected number of access executions in
// one body iteration.
func (l *Loop) AccessesPerIteration() float64 {
	var s float64
	for i := range l.Accesses {
		s += l.Accesses[i].Count
	}
	return s
}

// Spec is a pruned application specification.
type Spec struct {
	Name   string
	Groups []BasicGroup
	Loops  []Loop
}

// Group returns the named basic group.
func (s *Spec) Group(name string) (BasicGroup, bool) {
	for _, g := range s.Groups {
		if g.Name == name {
			return g, true
		}
	}
	return BasicGroup{}, false
}

// GroupNames returns the basic group names in declaration order.
func (s *Spec) GroupNames() []string {
	names := make([]string, len(s.Groups))
	for i, g := range s.Groups {
		names[i] = g.Name
	}
	return names
}

// FrameAccesses returns the expected number of accesses to each basic
// group over one frame (the quantity power estimation needs), indexed like
// s.Groups, from one pass over the loops.
func (s *Spec) FrameAccesses() []uint64 {
	col := make(map[string]int, len(s.Groups))
	for i := range s.Groups {
		col[s.Groups[i].Name] = i
	}
	totals := make([]float64, len(s.Groups))
	for li := range s.Loops {
		l := &s.Loops[li]
		for ai := range l.Accesses {
			a := &l.Accesses[ai]
			if i, ok := col[a.Group]; ok {
				totals[i] += a.Count * float64(l.Iterations)
			}
		}
	}
	out := make([]uint64, len(s.Groups))
	for i := range s.Groups {
		// Groups sharing a name (which Validate rejects) share its total.
		out[i] = uint64(math.Round(totals[col[s.Groups[i].Name]]))
	}
	return out
}

// TotalAccesses returns the expected accesses per frame across all groups.
func (s *Spec) TotalAccesses() uint64 {
	var total float64
	for li := range s.Loops {
		total += s.Loops[li].AccessesPerIteration() * float64(s.Loops[li].Iterations)
	}
	return uint64(math.Round(total))
}

// Clone returns a deep copy; transformations operate on copies so that
// exploration branches stay independent.
func (s *Spec) Clone() *Spec {
	c := &Spec{Name: s.Name}
	c.Groups = append([]BasicGroup(nil), s.Groups...)
	c.Loops = make([]Loop, len(s.Loops))
	for i, l := range s.Loops {
		cl := Loop{Name: l.Name, Iterations: l.Iterations}
		cl.Accesses = make([]Access, len(l.Accesses))
		for j, a := range l.Accesses {
			ca := a
			ca.Deps = append([]int(nil), a.Deps...)
			cl.Accesses[j] = ca
		}
		c.Loops[i] = cl
	}
	return c
}

// Validate checks referential and structural integrity: group references
// resolve, access IDs are dense and unique, dependences are acyclic and
// in-range, and counts are sane.
func (s *Spec) Validate() error {
	groups := make(map[string]bool, len(s.Groups))
	for _, g := range s.Groups {
		if g.Name == "" {
			return fmt.Errorf("spec %s: basic group with empty name", s.Name)
		}
		if groups[g.Name] {
			return fmt.Errorf("spec %s: duplicate basic group %q", s.Name, g.Name)
		}
		if g.Words <= 0 {
			return fmt.Errorf("spec %s: group %q has %d words", s.Name, g.Name, g.Words)
		}
		if g.Bits <= 0 || g.Bits > 64 {
			return fmt.Errorf("spec %s: group %q has width %d", s.Name, g.Name, g.Bits)
		}
		groups[g.Name] = true
	}
	for li := range s.Loops {
		l := &s.Loops[li]
		if l.Iterations == 0 {
			return fmt.Errorf("spec %s: loop %q has zero iterations", s.Name, l.Name)
		}
		for i, a := range l.Accesses {
			if a.ID != i {
				return fmt.Errorf("spec %s: loop %q access %d has ID %d (must be dense)",
					s.Name, l.Name, i, a.ID)
			}
			if !groups[a.Group] {
				return fmt.Errorf("spec %s: loop %q access %d references unknown group %q",
					s.Name, l.Name, i, a.Group)
			}
			if a.Count < 0 || a.Count > float64(1<<40) || math.IsNaN(a.Count) {
				return fmt.Errorf("spec %s: loop %q access %d has count %v",
					s.Name, l.Name, i, a.Count)
			}
			for _, d := range a.Deps {
				if d < 0 || d >= len(l.Accesses) {
					return fmt.Errorf("spec %s: loop %q access %d dep %d out of range",
						s.Name, l.Name, i, d)
				}
				if d == a.ID {
					return fmt.Errorf("spec %s: loop %q access %d depends on itself",
						s.Name, l.Name, i)
				}
			}
		}
		if hasCycle(l) {
			return fmt.Errorf("spec %s: loop %q has a dependence cycle", s.Name, l.Name)
		}
	}
	return nil
}

func hasCycle(l *Loop) bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(l.Accesses))
	var visit func(i int) bool
	visit = func(i int) bool {
		color[i] = gray
		for _, d := range l.Accesses[i].Deps {
			switch color[d] {
			case gray:
				return true
			case white:
				if visit(d) {
					return true
				}
			}
		}
		color[i] = black
		return false
	}
	for i := range l.Accesses {
		if color[i] == white && visit(i) {
			return true
		}
	}
	return false
}

// Builder assembles a Spec with dense access IDs and early validation.
type Builder struct {
	s      *Spec
	loop   *Loop
	branch string
}

// Branch sets the conditional-branch tag applied to subsequent accesses;
// pass "" to return to unconditional code.
func (b *Builder) Branch(tag string) *Builder {
	b.branch = tag
	return b
}

// NewBuilder starts a specification with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{s: &Spec{Name: name}}
}

// Group declares a basic group.
func (b *Builder) Group(name string, words int64, bits int) *Builder {
	b.s.Groups = append(b.s.Groups, BasicGroup{Name: name, Words: words, Bits: bits})
	return b
}

// Loop starts a new loop body executed iterations times per frame.
func (b *Builder) Loop(name string, iterations uint64) *Builder {
	b.flushLoop()
	b.loop = &Loop{Name: name, Iterations: iterations}
	return b
}

// Read adds a read access to the current loop; deps are IDs returned by
// earlier Read/Write calls in the same loop.
func (b *Builder) Read(group string, count float64, deps ...int) int {
	return b.access(group, "", false, count, deps)
}

// Write adds a write access to the current loop.
func (b *Builder) Write(group string, count float64, deps ...int) int {
	return b.access(group, "", true, count, deps)
}

// ReadSite adds a read access tagged with a co-indexing site.
func (b *Builder) ReadSite(group, site string, count float64, deps ...int) int {
	return b.access(group, site, false, count, deps)
}

// WriteSite adds a write access tagged with a co-indexing site.
func (b *Builder) WriteSite(group, site string, count float64, deps ...int) int {
	return b.access(group, site, true, count, deps)
}

func (b *Builder) access(group, site string, write bool, count float64, deps []int) int {
	if b.loop == nil {
		panic("spec: access added outside a loop")
	}
	id := len(b.loop.Accesses)
	ds := append([]int(nil), deps...)
	sort.Ints(ds)
	b.loop.Accesses = append(b.loop.Accesses, Access{
		ID: id, Group: group, Write: write, Count: count, Deps: ds, Site: site,
		Branch: b.branch,
	})
	return id
}

func (b *Builder) flushLoop() {
	if b.loop != nil {
		b.s.Loops = append(b.s.Loops, *b.loop)
		b.loop = nil
	}
}

// Build validates and returns the specification.
func (b *Builder) Build() (*Spec, error) {
	b.flushLoop()
	if err := b.s.Validate(); err != nil {
		return nil, err
	}
	return b.s, nil
}

// MustBuild is Build for specifications constructed from trusted code.
func (b *Builder) MustBuild() *Spec {
	s, err := b.Build()
	if err != nil {
		panic(err)
	}
	return s
}
