package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/assign"
	"repro/internal/memlib"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/sbd"
	"repro/internal/spec"
)

// TestSearchTableSharesAnswers: with the run cache on, a run answers some
// assignment calls from the cache's Assignments keyspace, the table of
// answers it searched earlier. Every call still opens an assign span, the
// shared ones expand no nodes and count as hits, so the run expands fewer
// nodes than one without the cache, and every variant's assignment equals
// the uncached run's.
func TestSearchTableSharesAnswers(t *testing.T) {
	run := func(cached bool) (*Results, *obs.Collector) {
		t.Helper()
		c := obs.NewCollector()
		ep := DefaultEvalParams()
		ep.Obs = obs.New(c)
		ep.NoCache = !cached
		r, err := RunAll(DemoConfig{Size: 64}, ep)
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Obs.Flush(); err != nil {
			t.Fatal(err)
		}
		return r, c
	}
	cached, cc := run(true)
	plain, pc := run(false)

	shared := func(c *obs.Collector) int {
		n := 0
		for _, r := range c.Find("assign") {
			if r.Fields["shared"] == int64(1) {
				n++
			}
		}
		return n
	}
	searches := len(cc.Find("assign"))
	if got := len(pc.Find("assign")); got != searches {
		t.Fatalf("%d assign spans with the cache, %d without", searches, got)
	}
	if n := shared(pc); n != 0 {
		t.Fatalf("uncached run shared %d answers", n)
	}
	n := shared(cc)
	if n == 0 {
		t.Fatalf("no answer of %d searches was shared", searches)
	}
	if hits := cc.Counters()["memo.hits{space=assignments}"]; hits != int64(n) {
		t.Fatalf("memo.hits{space=assignments} = %d, want the %d shared answers", hits, n)
	}
	nodes, plainNodes := cc.Counters()["assign.nodes"], pc.Counters()["assign.nodes"]
	if nodes >= plainNodes {
		t.Fatalf("assign.nodes %d with the table, %d without", nodes, plainNodes)
	}
	t.Logf("%d of %d searches shared; assign.nodes %d, %d without the cache", n, searches, nodes, plainNodes)

	for name, got := range renderAll(cached) {
		if want := renderAll(plain)[name]; got != want {
			t.Errorf("%s differs with the run cache:\n%s\nwithout:\n%s", name, got, want)
		}
	}
	steps := []struct {
		name          string
		cached, plain []*Variant
	}{
		{"structuring", cached.Structuring, plain.Structuring},
		{"hierarchy", cached.Hierarchy, plain.Hierarchy},
		{"allocation", cached.Allocations, plain.Allocations},
	}
	for i := range cached.Budgets {
		steps = append(steps, struct {
			name          string
			cached, plain []*Variant
		}{"budget", []*Variant{cached.Budgets[i].Variant}, []*Variant{plain.Budgets[i].Variant}})
	}
	for _, st := range steps {
		if len(st.cached) != len(st.plain) {
			t.Fatalf("%s: %d variants with the table, %d without", st.name, len(st.cached), len(st.plain))
		}
		for i := range st.cached {
			if !reflect.DeepEqual(st.cached[i].Asgn, st.plain[i].Asgn) {
				t.Errorf("%s %q: assignment differs with the run cache", st.name, st.cached[i].Label)
			}
		}
	}
}

// TestSearchKeyCanonical: the key ignores pattern order, repeats, weights
// and rows without an access to the side's groups, and it changes with the
// count and with any multiplicity or access count. The run cache hands a
// repeated problem the first answer, and never shares one a canceled
// context cut short.
func TestSearchKeyCanonical(t *testing.T) {
	build := func(extra float64) *spec.Spec {
		b := spec.NewBuilder("key")
		b.Group("a", 1024, 8)
		b.Group("b", 512, 16)
		b.Group("big", 1<<20, 8)
		b.Group("idle", 64, 8)
		b.Loop("l1", 1000)
		b.Read("a", 2+extra)
		b.Read("b", 1)
		b.Write("big", 1)
		return b.MustBuild()
	}
	s := build(0)
	tech := memlib.Default()
	p := assign.Params{}
	pats := []sbd.Pattern{
		{Access: map[string]int{"a": 2, "b": 1}, Weight: 1000},
		{Access: map[string]int{"a": 1, "big": 1}, Weight: 10},
		{Access: map[string]int{"big": 1}, Weight: 5},
	}
	key := searchKey(s, pats, tech, 2, p)
	same := []sbd.Pattern{
		{Access: map[string]int{"big": 1}, Weight: 7},
		{Access: map[string]int{"a": 1, "big": 1}, Weight: 1},
		{Access: map[string]int{"b": 1, "a": 2}, Weight: 3},
		{Access: map[string]int{"a": 2, "b": 1}, Weight: 1000},
		{Access: map[string]int{"idle": 0}, Weight: 9},
	}
	if !bytes.Equal(searchKey(s, same, tech, 2, p), key) {
		t.Fatal("reordered, repeated and reweighted patterns changed the key")
	}
	for name, k := range map[string][]byte{
		"count":        searchKey(s, pats, tech, 3, p),
		"accesses":     searchKey(build(1), pats, tech, 2, p),
		"multiplicity": searchKey(s, append(pats[:2:2], sbd.Pattern{Access: map[string]int{"big": 2}}), tech, 2, p),
		"node budget":  searchKey(s, pats, tech, 2, assign.Params{NodeBudget: 10}),
	} {
		if bytes.Equal(k, key) {
			t.Errorf("a different %s kept the key", name)
		}
	}

	ep := EvalParams{Tech: tech, memo: memo.New(memo.Assignments)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cut, err := ep.assign(ctx, s, pats, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	first, err := ep.assign(context.Background(), s, pats, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	if first == cut {
		t.Fatal("a canceled search's answer was shared")
	}
	again, err := ep.assign(context.Background(), s, same, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatal("the repeated problem was searched again")
	}
	want, err := assign.AssignContext(context.Background(), s, same, tech, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("shared answer %+v, a direct search gives %+v", again, want)
	}
}
