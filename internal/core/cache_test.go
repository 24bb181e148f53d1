package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/spec"
)

// spanCounter counts finished spans by name.
type spanCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func newSpanCounter() *spanCounter { return &spanCounter{n: make(map[string]int)} }

func (c *spanCounter) Span(r *obs.SpanRecord) {
	c.mu.Lock()
	c.n[r.Name]++
	c.mu.Unlock()
}
func (c *spanCounter) Flush(map[string]int64) error { return nil }

func (c *spanCounter) count(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[name]
}

// infeasibleSpec is unassignable at any allocation: nine dependence-free
// accesses to one group with exactly one storage cycle per iteration force
// a nine-port memory, above the default MaxPorts of eight.
func infeasibleSpec() (*spec.Spec, uint64) {
	b := spec.NewBuilder("infeasible")
	b.Group("g", 64, 8)
	b.Loop("l", 8)
	for i := 0; i < 9; i++ {
		b.Read("g", 1)
	}
	return b.MustBuild(), 8 // total budget = iterations × 1 cycle
}

// TestAllocationRetryInfeasible: with a live context, an infeasible
// allocation is retried at larger counts (the documented +6 window) before
// giving up.
func TestAllocationRetryInfeasible(t *testing.T) {
	s, budget := infeasibleSpec()
	sink := newSpanCounter()
	ep := DefaultEvalParams()
	ep.Obs = obs.New(sink)
	_, err := EvaluateContext(context.Background(), s, budget, "live", ep)
	if err == nil {
		t.Fatal("expected allocation failure for the 9-port spec")
	}
	if got := sink.count("assign"); got != 7 {
		t.Fatalf("live context made %d assign attempts, want 7 (count..count+6)", got)
	}
}

// TestAllocationRetryStopsOnDeadContext: a canceled context cannot be
// helped by a larger allocation — the retry loop must classify the error
// and make exactly one attempt.
func TestAllocationRetryStopsOnDeadContext(t *testing.T) {
	s, budget := infeasibleSpec()
	sink := newSpanCounter()
	ep := DefaultEvalParams()
	ep.Obs = obs.New(sink)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EvaluateContext(ctx, s, budget, "dead", ep)
	if err == nil {
		t.Fatal("expected allocation failure for the 9-port spec")
	}
	if got := sink.count("assign"); got != 1 {
		t.Fatalf("canceled context made %d assign attempts, want exactly 1", got)
	}
}

// TestCachedRunMatchesUncached: the run cache must only remove redundant
// work. A cached and an uncached full methodology run must render
// byte-identical tables and figures.
func TestCachedRunMatchesUncached(t *testing.T) {
	epCached := DefaultEvalParams().ScaleTo(64)
	epCached.Obs = obs.New()
	cached, err := RunAll(DemoConfig{Size: 64}, epCached)
	if err != nil {
		t.Fatal(err)
	}
	if hits := epCached.Obs.Counters()["memo.hits{space=schedule}"]; hits == 0 {
		t.Fatal("cached run never hit the schedule cache")
	}

	epPlain := DefaultEvalParams().ScaleTo(64)
	epPlain.NoCache = true
	plain, err := RunAll(DemoConfig{Size: 64}, epPlain)
	if err != nil {
		t.Fatal(err)
	}

	renders := []struct {
		name             string
		cached, uncached string
	}{
		{"Table1", cached.Table1().Render(), plain.Table1().Render()},
		{"Table2", cached.Table2().Render(), plain.Table2().Render()},
		{"Table3", cached.Table3().Render(), plain.Table3().Render()},
		{"Table4", cached.Table4().Render(), plain.Table4().Render()},
		{"Figure1", cached.Figure1(), plain.Figure1()},
		{"Figure2", cached.Figure2(), plain.Figure2()},
		{"Figure3", cached.Figure3(), plain.Figure3()},
	}
	for _, r := range renders {
		if r.cached != r.uncached {
			t.Errorf("%s differs between cached and uncached runs:\ncached:\n%s\nuncached:\n%s",
				r.name, r.cached, r.uncached)
		}
	}
	// The proven-optimality flags must agree too (the cache must not turn a
	// proven-optimal search into a best-effort one or vice versa).
	if cached.Final.Asgn.Optimal != plain.Final.Asgn.Optimal {
		t.Errorf("final Optimal flag differs: cached=%v uncached=%v",
			cached.Final.Asgn.Optimal, plain.Final.Asgn.Optimal)
	}
}

// renderAll renders every table and figure of a Results for byte-comparison.
func renderAll(r *Results) map[string]string {
	return map[string]string{
		"Table1":  r.Table1().Render(),
		"Table2":  r.Table2().Render(),
		"Table3":  r.Table3().Render(),
		"Table4":  r.Table4().Render(),
		"Figure1": r.Figure1(),
		"Figure2": r.Figure2(),
		"Figure3": r.Figure3(),
	}
}

// TestParallelRunMatchesSerial: the worker pool must only change wall-clock
// time, never results. A strictly sequential run (workers=1) and parallel
// runs (workers=2, the width where the caller and one helper share every
// fan-out, and workers=8) of the full methodology must render
// byte-identical tables and figures — with the run cache on and off.
func TestParallelRunMatchesSerial(t *testing.T) {
	run := func(workers int, cache bool) *Results {
		t.Helper()
		ep := DefaultEvalParams().ScaleTo(64)
		ep.Workers = pool.New(workers)
		ep.NoCache = !cache
		r, err := RunAll(DemoConfig{Size: 64}, ep)
		if err != nil {
			t.Fatalf("workers=%d cache=%v: %v", workers, cache, err)
		}
		return r
	}
	for _, cache := range []bool{true, false} {
		serial := run(1, cache)
		want := renderAll(serial)
		for _, workers := range []int{2, 8} {
			wide := run(workers, cache)
			for name, got := range renderAll(wide) {
				if got != want[name] {
					t.Errorf("cache=%v: %s differs between workers=1 and workers=%d:\nserial:\n%s\nparallel:\n%s",
						cache, name, workers, want[name], got)
				}
			}
			if serial.Final.Asgn.Optimal != wide.Final.Asgn.Optimal {
				t.Errorf("cache=%v: final Optimal flag differs: workers=1 %v, workers=%d %v",
					cache, serial.Final.Asgn.Optimal, workers, wide.Final.Asgn.Optimal)
			}
		}
	}
}
