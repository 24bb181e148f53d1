package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestForEachRunsAllItems: every index runs exactly once, at any width.
func TestForEachRunsAllItems(t *testing.T) {
	for _, w := range []int{1, 2, 4, 16} {
		p := New(w)
		const n = 100
		ran := make([]atomic.Int64, n)
		p.ForEach(context.Background(), n, func(i int) { ran[i].Add(1) })
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", w, i, got)
			}
		}
	}
}

// TestSingleWorkerIsSequential: a 1-wide pool spawns no goroutines and runs
// items in submission order on the caller.
func TestSingleWorkerIsSequential(t *testing.T) {
	p := New(1)
	var order []int
	p.ForEach(context.Background(), 10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("1-wide pool ran out of order: %v", order)
		}
	}
	spawns, inline := p.Stats()
	if spawns != 0 {
		t.Fatalf("1-wide pool spawned %d helpers", spawns)
	}
	if inline != 10 {
		t.Fatalf("inline count = %d, want 10", inline)
	}
}

// TestConcurrencyBounded: at no instant do more than Workers() goroutines
// execute work simultaneously, even with nested ForEach calls. Work happens
// at the leaves (the outer items only fan out and then block in Wait), so
// leaf-level concurrency is the pool's true parallelism.
func TestConcurrencyBounded(t *testing.T) {
	const w = 4
	p := New(w)
	var cur, peak atomic.Int64
	p.ForEach(context.Background(), 32, func(i int) {
		// Nest a second fan-out inside each item.
		p.ForEach(context.Background(), 8, func(j int) {
			c := cur.Add(1)
			defer cur.Add(-1)
			for {
				pk := peak.Load()
				if c <= pk || peak.CompareAndSwap(pk, c) {
					break
				}
			}
			runtime.Gosched()
		})
	})
	if pk := peak.Load(); pk > w {
		t.Fatalf("peak concurrency %d exceeds pool width %d", pk, w)
	}
}

// TestNestingDoesNotDeadlock: deep nesting under saturation completes (the
// inline fallback guarantees progress).
func TestNestingDoesNotDeadlock(t *testing.T) {
	p := New(2)
	var total atomic.Int64
	var rec func(depth int)
	rec = func(depth int) {
		if depth == 0 {
			total.Add(1)
			return
		}
		p.ForEach(context.Background(), 3, func(int) { rec(depth - 1) })
	}
	rec(5) // 3^5 leaf items through a 2-wide pool
	if got := total.Load(); got != 243 {
		t.Fatalf("ran %d leaf items, want 243", got)
	}
}

// TestForEachHandsOutOnDemand: the first item to start blocks until every
// other item has finished, so the fan-out completes only if another worker
// keeps taking items meanwhile. Item 0 waits for another item to start, so
// the blocked item is never one a helper took first while the caller went
// on: a caller that alone launches items, and runs one inline when the only
// helper slot is busy, would block inside it with the rest unlaunched.
func TestForEachHandsOutOnDemand(t *testing.T) {
	p := New(2)
	const n = 8
	var started, finished atomic.Int64
	otherStarted := make(chan struct{})
	allOthersDone := make(chan struct{})
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		p.ForEach(context.Background(), n, func(i int) {
			if i == 0 {
				<-otherStarted
			}
			first := started.Add(1) == 1
			if i != 0 && first {
				close(otherStarted)
				<-allOthersDone
				return
			}
			if finished.Add(1) == n-1 {
				close(allOthersDone)
			}
		})
	}()
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		t.Fatalf("fan-out stalled: %d of %d items started, %d finished", started.Load(), n, finished.Load())
	}
}

// TestCancellationSkipsLaunches: once the context is canceled, item 0 has
// run but no item after the cancellation point is launched.
func TestCancellationSkipsLaunches(t *testing.T) {
	p := New(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const n = 50
	ran := make([]atomic.Int64, n)
	p.ForEach(ctx, n, func(i int) { ran[i].Add(1) })
	if ran[0].Load() != 1 {
		t.Fatal("item 0 must always run (the sweep's reference point)")
	}
	for i := 1; i < n; i++ {
		if ran[i].Load() != 0 {
			t.Fatalf("item %d launched under a canceled context", i)
		}
	}
}

// TestNilPoolSequential: a nil pool runs inline with the same cancellation
// contract.
func TestNilPoolSequential(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool width = %d, want 1", p.Workers())
	}
	var ran []int
	p.ForEach(context.Background(), 5, func(i int) { ran = append(ran, i) })
	if len(ran) != 5 {
		t.Fatalf("nil pool ran %d items, want 5", len(ran))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran = nil
	p.ForEach(ctx, 5, func(i int) { ran = append(ran, i) })
	if len(ran) != 1 || ran[0] != 0 {
		t.Fatalf("nil pool under canceled ctx ran %v, want [0]", ran)
	}
	if s, in := p.Stats(); s != 0 || in != 0 {
		t.Fatal("nil pool reported stats")
	}
	p.Publish(nil) // must not panic
}

// TestDefaultWidth: New(0) picks GOMAXPROCS.
func TestDefaultWidth(t *testing.T) {
	if got, want := New(0).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("New(0).Workers() = %d, want GOMAXPROCS %d", got, want)
	}
	if got := New(-3).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(-3).Workers() = %d", got)
	}
}

// TestPublish: counters surface as gauges on the observer.
func TestPublish(t *testing.T) {
	p := New(3)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); p.ForEach(context.Background(), 20, func(int) { runtime.Gosched() }) }()
	wg.Wait()
	o := obs.New()
	p.Publish(o)
	got := o.Counters()
	if got["pool.workers"] != 3 {
		t.Fatalf("pool.workers gauge = %d, want 3", got["pool.workers"])
	}
	spawns, inline := p.Stats()
	if got["pool.spawns"] != spawns || got["pool.inline_runs"] != inline {
		t.Fatalf("published %v, stats (%d, %d)", got, spawns, inline)
	}
	if spawns+inline != 20 {
		t.Fatalf("spawns %d + inline %d != 20 items", spawns, inline)
	}
}
