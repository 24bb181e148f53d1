package memo

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func TestDoCachesPerSpaceAndKey(t *testing.T) {
	c := New(Requests, Schedule)
	calls := 0
	compute := func() (any, bool) { calls++; return calls, true }

	if v := c.Do(Schedule, tkey("k"), compute); v != 1 {
		t.Fatalf("first Do = %v, want 1", v)
	}
	if v := c.Do(Schedule, tkey("k"), compute); v != 1 {
		t.Fatalf("second Do = %v, want cached 1", v)
	}
	// Same key in a different space is a distinct slot.
	if v := c.Do(Requests, tkey("k"), compute); v != 2 {
		t.Fatalf("other-space Do = %v, want fresh 2", v)
	}
	st := c.Stats(Schedule)
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("Schedule stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestDoUncacheableIsNotStored(t *testing.T) {
	c := New(Schedule)
	calls := 0
	uncacheable := func() (any, bool) { calls++; return calls, false }
	if v := c.Do(Schedule, tkey("k"), uncacheable); v != 1 {
		t.Fatalf("Do = %v, want 1", v)
	}
	if v := c.Do(Schedule, tkey("k"), uncacheable); v != 2 {
		t.Fatalf("Do after uncacheable = %v, want recomputed 2", v)
	}
	st := c.Stats(Schedule)
	if st.Hits != 0 || st.Misses != 2 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want 0 hits / 2 misses / 0 entries", st)
	}
}

func TestDoSingleflight(t *testing.T) {
	c := New(Schedule)
	const goroutines = 8
	var computes atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.Do(Schedule, tkey("shared"), func() (any, bool) {
				computes.Add(1)
				<-release // hold the computer until every waiter queued
				return "value", true
			})
		}(i)
	}
	// InflightWaits is bumped before a waiter blocks on the entry, so once
	// the count reaches goroutines-1 every other goroutine is provably on
	// the wait path of the single in-flight compute.
	for c.Stats(Schedule).InflightWaits < int64(goroutines-1) {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1 (singleflight)", n)
	}
	for i, r := range results {
		if r != "value" {
			t.Fatalf("goroutine %d got %v, want \"value\"", i, r)
		}
	}
	st := c.Stats(Schedule)
	if st.Misses != 1 || st.Hits != int64(goroutines-1) {
		t.Fatalf("stats = %+v, want 1 miss / %d hits", st, goroutines-1)
	}
	if st.InflightWaits != int64(goroutines-1) {
		t.Fatalf("stats = %+v, want %d in-flight waits", st, goroutines-1)
	}
}

func TestDoSingleflightUncacheableWaitersRecompute(t *testing.T) {
	c := New(Schedule)
	release := make(chan struct{})
	firstIn := make(chan struct{})
	var secondVal any
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c.Do(Schedule, tkey("k"), func() (any, bool) {
			close(firstIn)
			<-release
			return "degraded", false // e.g. canceled-context result
		})
	}()
	go func() {
		defer wg.Done()
		<-firstIn // guarantee we arrive while the first compute is in flight
		secondVal = c.Do(Schedule, tkey("k"), func() (any, bool) {
			return "fresh", true
		})
	}()
	// Give the second goroutine a chance to block on the in-flight entry,
	// then let the degraded compute finish.
	close(release)
	wg.Wait()
	if secondVal != "fresh" {
		t.Fatalf("waiter got %v, want recomputed \"fresh\"", secondVal)
	}
	// The fresh result must now be cached.
	v := c.Do(Schedule, tkey("k"), func() (any, bool) { return "wrong", true })
	if v != "fresh" {
		t.Fatalf("third Do = %v, want cached \"fresh\"", v)
	}
}

// TestDoUncacheableHandoffSingleTakeover pins the waiter-takeover compute
// count: when an in-flight compute finishes uncacheable with N waiters
// blocked on it, exactly one waiter becomes the next computer — total
// computes must be exactly 2 (the degraded original plus one takeover) and
// every waiter must observe the takeover's value.
func TestDoUncacheableHandoffSingleTakeover(t *testing.T) {
	c := New(Schedule)
	const waiters = 8
	release := make(chan struct{})
	firstIn := make(chan struct{})
	var takeoverComputes atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(Schedule, tkey("k"), func() (any, bool) {
			close(firstIn)
			<-release
			return "degraded", false
		})
	}()
	<-firstIn
	results := make([]any, waiters)
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			defer wg.Done()
			results[i] = c.Do(Schedule, tkey("k"), func() (any, bool) {
				takeoverComputes.Add(1)
				return "fresh", true
			})
		}(i)
	}
	// Every waiter registers (and bumps InflightWaits) before blocking, so
	// the poll guarantees all of them are queued on the in-flight entry.
	for c.Stats(Schedule).InflightWaits < waiters {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := takeoverComputes.Load(); n != 1 {
		t.Fatalf("takeover ran %d computes, want exactly 1 (one waiter takes over)", n)
	}
	for i, r := range results {
		if r != "fresh" {
			t.Fatalf("waiter %d got %v, want the takeover's \"fresh\"", i, r)
		}
	}
	// The takeover's cacheable result must now serve hits.
	if v := c.Do(Schedule, tkey("k"), func() (any, bool) { return "wrong", true }); v != "fresh" {
		t.Fatalf("post-handoff Do = %v, want cached \"fresh\"", v)
	}
}

// TestDoAllUncacheableChain: when every compute is uncacheable, the
// takeover chain drains one waiter per round — each caller computes at most
// once (no stampede, no lost caller) and nothing is left in the map.
func TestDoAllUncacheableChain(t *testing.T) {
	c := New(Schedule)
	const callers = 8
	var computes atomic.Int64
	var wg sync.WaitGroup
	results := make([]any, callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			results[i] = c.Do(Schedule, tkey("k"), func() (any, bool) {
				computes.Add(1)
				runtime.Gosched()
				return i, false
			})
		}(i)
	}
	wg.Wait()
	if n := computes.Load(); n > callers {
		t.Fatalf("%d computes for %d callers (stampede)", n, callers)
	}
	for i, r := range results {
		if r != i {
			t.Fatalf("caller %d got %v, want its own uncacheable result %d", i, r, i)
		}
	}
	if st := c.Stats(Schedule); st.Entries != 0 {
		t.Fatalf("uncacheable chain left %d entries in the map", st.Entries)
	}
}

func TestNilCacheRuns(t *testing.T) {
	var c *Cache
	calls := 0
	for i := 0; i < 3; i++ {
		if v := c.Do(Schedule, tkey("k"), func() (any, bool) { calls++; return calls, true }); v != i+1 {
			t.Fatalf("nil-cache Do #%d = %v, want %d", i, v, i+1)
		}
	}
	if st := c.Stats(Schedule); st != (Stats{}) {
		t.Fatalf("nil-cache stats = %+v, want zero", st)
	}
	c.Publish(nil) // must not panic
}

func TestPublishGauges(t *testing.T) {
	c := New(Requests, Schedule)
	c.Do(Schedule, tkey("a"), func() (any, bool) { return 1, true })
	c.Do(Schedule, tkey("a"), func() (any, bool) { return 1, true })
	o := obs.New()
	c.Publish(o)
	snap := o.Counters()
	if snap["memo.hits{space=schedule}"] != 1 {
		t.Fatalf("hits gauge = %d, want 1 (snapshot: %v)", snap["memo.hits{space=schedule}"], snap)
	}
	if snap["memo.misses{space=schedule}"] != 1 {
		t.Fatalf("misses gauge = %d, want 1", snap["memo.misses{space=schedule}"])
	}
	// Untouched spaces are skipped.
	if _, ok := snap["memo.hits{space=requests}"]; ok {
		t.Fatal("untouched space published")
	}
	// Publishing twice must not double-count (gauges, not counters).
	c.Publish(o)
	snap = o.Counters()
	if snap["memo.hits{space=schedule}"] != 1 {
		t.Fatalf("hits gauge after re-publish = %d, want 1", snap["memo.hits{space=schedule}"])
	}
}

// TestCacheHoldsOnlyItsSpaces: a cache publishes and observes only the
// keyspaces New was given, and naming any other is a bug that panics.
func TestCacheHoldsOnlyItsSpaces(t *testing.T) {
	c := New(Requests, Aliases)
	o := obs.New()
	c.Observe(o)
	c.Do(Requests, tkey("a"), func() (any, bool) { return 1, true })
	c.Do(Aliases, tkey("a"), func() (any, bool) { return 1, true })
	c.Publish(o)
	for name := range o.Counters() {
		if strings.Contains(name, "space=schedule") || strings.Contains(name, "space=assignments") {
			t.Errorf("published %s from a cache without that keyspace", name)
		}
	}
	for name := range o.Snapshot().Histograms {
		if !strings.Contains(name, "space=requests") && !strings.Contains(name, "space=aliases") {
			t.Errorf("observed %s from a cache without that keyspace", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Stats of a keyspace the cache does not hold did not panic")
		}
	}()
	c.Stats(Schedule)
}

func TestSpaceString(t *testing.T) {
	names := map[Space]string{Schedule: "schedule", Requests: "requests", Aliases: "aliases", Assignments: "assignments"}
	for sp, want := range names {
		if got := sp.String(); got != want {
			t.Fatalf("Space(%d).String() = %q, want %q", sp, got, want)
		}
	}
	if got := Space(99).String(); got != "space99" {
		t.Fatalf("unknown space = %q", got)
	}
}
