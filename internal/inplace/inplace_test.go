package inplace

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/spec"
)

// stagedSpec: a (loops 0-1), b (loops 1-2), c (loop 3 only) — a and c are
// disjoint, b overlaps both a and c? b ends at 2, c starts at 3: disjoint.
func stagedSpec(t testing.TB) *spec.Spec {
	t.Helper()
	b := spec.NewBuilder("staged")
	b.Group("a", 1000, 8).Group("b", 500, 8).Group("c", 800, 8).Group("dead", 64, 8)
	b.Loop("l0", 10)
	b.Write("a", 1)
	b.Loop("l1", 10)
	x := b.Read("a", 1)
	b.Write("b", 1, x)
	b.Loop("l2", 10)
	b.Read("b", 1)
	b.Loop("l3", 10)
	b.Write("c", 1)
	b.Read("c", 1)
	return b.MustBuild()
}

func TestLifetimes(t *testing.T) {
	s := stagedSpec(t)
	lt := Lifetimes(s)
	want := map[string]Interval{
		"a": {0, 1},
		"b": {1, 2},
		"c": {3, 3},
	}
	for g, iv := range want {
		if lt[g] != iv {
			t.Errorf("%s lifetime = %+v, want %+v", g, lt[g], iv)
		}
	}
	if _, ok := lt["dead"]; ok {
		t.Error("never-accessed group has a lifetime")
	}
}

func TestOverlaps(t *testing.T) {
	cases := []struct {
		a, b Interval
		want bool
	}{
		{Interval{0, 1}, Interval{1, 2}, true},
		{Interval{0, 1}, Interval{2, 3}, false},
		{Interval{2, 3}, Interval{0, 1}, false},
		{Interval{0, 5}, Interval{2, 3}, true},
		{Interval{3, 3}, Interval{3, 3}, true},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v overlaps %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestPeakVsSum(t *testing.T) {
	s := stagedSpec(t)
	all := []string{"a", "b", "c"}
	sum := SumWords(s, all)
	if sum != 2300 {
		t.Fatalf("SumWords = %d, want 2300", sum)
	}
	// Peak: l1 has a+b live = 1500; l3 has only c = 800.
	peak := PeakWords(s, all)
	if peak != 1500 {
		t.Fatalf("PeakWords = %d, want 1500", peak)
	}
}

func TestPeakSingleGroup(t *testing.T) {
	s := stagedSpec(t)
	if PeakWords(s, []string{"a"}) != 1000 {
		t.Fatal("single-group peak must equal its size")
	}
	if SumWords(s, []string{"a"}) != 1000 {
		t.Fatal("single group cannot save")
	}
}

func TestDeadGroupContributesNothing(t *testing.T) {
	s := stagedSpec(t)
	if PeakWords(s, []string{"dead"}) != 0 || SumWords(s, []string{"dead"}) != 0 {
		t.Fatal("dead group contributed storage")
	}
}

func TestDisjointPairs(t *testing.T) {
	s := stagedSpec(t)
	pairs := DisjointPairs(s)
	want := map[[2]string]bool{
		{"a", "c"}: true,
		{"b", "c"}: true,
	}
	if len(pairs) != len(want) {
		t.Fatalf("pairs = %v", pairs)
	}
	for _, p := range pairs {
		if !want[p] {
			t.Errorf("unexpected pair %v", p)
		}
	}
}

func TestReport(t *testing.T) {
	s := stagedSpec(t)
	r := Report(s)
	for _, w := range []string{"a", "l0", "l1", "disjoint"} {
		if !strings.Contains(r, w) {
			t.Fatalf("report missing %q:\n%s", w, r)
		}
	}
}

func TestReportNoOpportunity(t *testing.T) {
	b := spec.NewBuilder("overlap")
	b.Group("x", 10, 8).Group("y", 10, 8)
	b.Loop("l", 5)
	b.Read("x", 1)
	b.Read("y", 1)
	s := b.MustBuild()
	if !strings.Contains(Report(s), "no inter-group in-place opportunity") {
		t.Fatal("report should state absence of opportunities")
	}
}

// Property: peak is never above sum, never below the largest member, and
// in-place savings are non-negative.
func TestQuickPeakBounds(t *testing.T) {
	f := func(sizes []uint16, spans []uint8) bool {
		n := len(sizes)
		if n == 0 || n > 8 {
			return true
		}
		b := spec.NewBuilder("q")
		const loops = 6
		for i := 0; i < n; i++ {
			b.Group(name(i), int64(sizes[i])+1, 8)
		}
		type iv struct{ first, last int }
		ivs := make([]iv, n)
		for i := 0; i < n; i++ {
			f0 := 0
			if i < len(spans) {
				f0 = int(spans[i]) % loops
			}
			l0 := f0
			if len(spans) > 0 {
				l0 = f0 + int(spans[(i+1)%len(spans)])%(loops-f0)
			}
			ivs[i] = iv{f0, l0}
		}
		for li := 0; li < loops; li++ {
			b.Loop(loopName(li), 3)
			for i := 0; i < n; i++ {
				if ivs[i].first <= li && li <= ivs[i].last {
					b.Read(name(i), 1)
				}
			}
		}
		// Some loop might have no accesses: pad with a dummy group access.
		s, err := b.Build()
		if err != nil {
			return true // zero-access loops are invalid specs; skip
		}
		var members []string
		var maxSize, sum int64
		for i := 0; i < n; i++ {
			members = append(members, name(i))
			sz := int64(sizes[i]) + 1
			sum += sz
			if sz > maxSize {
				maxSize = sz
			}
		}
		peak := PeakWords(s, members)
		return peak <= sum && peak >= maxSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func name(i int) string     { return string(rune('a' + i)) }
func loopName(i int) string { return "l" + string(rune('0'+i)) }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
