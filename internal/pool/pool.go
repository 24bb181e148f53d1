// Package pool provides the session-wide bounded worker pool of the
// exploration engine.
//
// The exploration pipeline parallelizes at the level of its candidates: the
// structuring, hierarchy, budget and allocation sweeps fan out over their
// candidates, each of which runs its assignment search sequentially, and
// the reuse analysis streams beside them on its own goroutine. A server
// session runs many such explorations at once on one shared pool, so
// spawning one goroutine per item per request would burst into far more
// goroutines than the machine has cores. The pool caps the whole session at
// a fixed number of workers instead and stays safe under nesting by
// construction: a fan-out takes helper slots only when they are free and
// never waits for one, and the submitting goroutine works through the items
// itself, so saturation can never deadlock and the caller always makes
// progress.
//
// Items are handed out on demand: the caller and its helpers each take the
// next unlaunched index from one shared counter until none is left, so no
// worker idles while another is busy with a long item and work remains.
//
// The caller counts as one of the workers: a pool of W workers hands out at
// most W-1 helper slots, so -workers=1 means strictly sequential execution
// with zero goroutines spawned. Results are always collected by item index,
// never by completion order, so every use of the pool is deterministic at
// any worker count.
//
// A nil *Pool is valid everywhere and runs everything inline, the same
// idiom as the nil obs.Observer and nil memo.Cache.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Pool is a bounded worker pool. The zero value is not usable; construct
// with New.
type Pool struct {
	sem     chan struct{} // helper slots: capacity workers-1
	workers int

	spawns atomic.Int64 // items run on a helper goroutine
	inline atomic.Int64 // items run on the submitting goroutine

	// hist, when set by Observe, records each ForEach item's duration
	// (pool.task). Opt-in so bare library use pays nothing.
	hist *obs.Histogram
}

// New returns a pool of the given total width. Non-positive workers selects
// runtime.GOMAXPROCS(0), the machine's available parallelism.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers-1), workers: workers}
}

// Workers returns the pool's total width, counting the submitting
// goroutine. A nil pool has width 1 (everything inline).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Stats returns how many items ran on helper goroutines and how many ran
// inline on the submitting goroutine — its share of a fan-out, all of it
// when the pool was saturated (the nesting-safety fallback) or a ForEach had
// a single item. Every ForEach item lands in exactly one of the two
// counters.
func (p *Pool) Stats() (spawns, inline int64) {
	if p == nil {
		return 0, 0
	}
	return p.spawns.Load(), p.inline.Load()
}

// ForEach runs f(0), ..., f(n-1) and returns when all launched items
// finished. The caller recruits a helper goroutine for each free helper
// slot while at least two items are left, and the caller and its helpers
// each take the next unlaunched index until none is left. Items must
// communicate results through index-addressed slots; ForEach guarantees
// nothing about execution order.
//
// Cancellation propagates at launch time, preserving the sweep contract of
// the exploration steps: item 0 always runs — it is each sweep's reference
// point — and once ctx is done no further item is launched (already-running
// items are waited for; they degrade internally through the same ctx).
func (p *Pool) ForEach(ctx context.Context, n int, f func(i int)) {
	done := ctx.Done()
	if p != nil && p.hist != nil {
		h, inner := p.hist, f
		f = func(i int) {
			start := time.Now()
			inner(i)
			h.Observe(time.Since(start))
		}
	}
	if n == 1 {
		// Single item: it runs on the caller unconditionally (item 0 is never
		// gated on ctx), so skip the counter and slot machinery entirely.
		// Still counted, so Stats covers every item.
		if p != nil {
			p.inline.Add(1)
		}
		f(0)
		return
	}
	var next atomic.Int64 // the next unlaunched index
	// take claims the next index; false once none is left or ctx is done.
	take := func() (int, bool) {
		i := int(next.Add(1) - 1)
		if i >= n {
			return 0, false
		}
		if i > 0 && done != nil {
			select {
			case <-done:
				return 0, false
			default:
			}
		}
		return i, true
	}
	if p == nil {
		for i, ok := take(); ok; i, ok = take() {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	helpers := 0
	// recruit starts a helper for each free slot while items are left
	// beyond the one the caller takes next. Slots are only ever taken
	// without blocking: this is what makes nested ForEach calls
	// deadlock-free — the caller never waits for a slot another ForEach
	// might be holding.
	recruit := func() {
		for helpers < n-1 && next.Load() < int64(n-1) {
			select {
			case p.sem <- struct{}{}:
			default:
				return
			}
			helpers++
			wg.Add(1)
			go func() {
				defer func() {
					<-p.sem
					wg.Done()
				}()
				for i, ok := take(); ok; i, ok = take() {
					p.spawns.Add(1)
					f(i)
				}
			}()
		}
	}
	for {
		recruit()
		i, ok := take()
		if !ok {
			break
		}
		p.inline.Add(1)
		f(i)
	}
	wg.Wait()
}

// Observe enables the per-task duration histogram on the observer
// (pool.task): every ForEach item records how long it ran, whether on a
// helper goroutine or inline. Call before the pool is used concurrently
// (NewServer wires it at construction); safe on a nil Pool or Observer.
func (p *Pool) Observe(o *obs.Observer) {
	if p == nil || o == nil {
		return
	}
	p.hist = o.Histogram("pool.task")
}

// Publish snapshots the pool counters into the observer as gauges
// (pool.workers, pool.spawns, pool.inline_runs). Safe on a nil Pool or nil
// Observer; idempotent.
func (p *Pool) Publish(o *obs.Observer) {
	if p == nil || o == nil {
		return
	}
	spawns, inline := p.Stats()
	o.Gauge("pool.workers").Set(int64(p.workers))
	o.Gauge("pool.spawns").Set(spawns)
	o.Gauge("pool.inline_runs").Set(inline)
}
