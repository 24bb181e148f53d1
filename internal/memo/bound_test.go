package memo

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// --- byte accounting ---

func TestBoundAccountingExact(t *testing.T) {
	c := New(Schedule)
	c.Bound(Schedule, 1<<20)
	want := int64(0)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key%03d", i)
		val := strings.Repeat("x", i)
		if got := c.Do(Schedule, tkey(key), func() (any, bool) { return val, true }); got != val {
			t.Fatalf("Do(%q) = %v, want %q", key, got, val)
		}
		want += sizeOf(val)
	}
	st := c.Stats(Schedule)
	if st.BytesHeld != want {
		t.Fatalf("BytesHeld = %d, want exact sum %d", st.BytesHeld, want)
	}
	if st.Entries != 100 || st.Evictions != 0 || st.OversizeDrops != 0 {
		t.Fatalf("stats = %+v, want 100 entries, no evictions, no drops", st)
	}
	if st.CapBytes != 1<<20 {
		t.Fatalf("CapBytes = %d, want %d", st.CapBytes, 1<<20)
	}
}

type sizedVal struct{ n int }

func (s sizedVal) CacheBytes() int { return s.n }

func TestBoundSizedValuesUseReportedBytes(t *testing.T) {
	c := New(Requests)
	c.Bound(Requests, 1<<20)
	c.Do(Requests, tkey("k"), func() (any, bool) { return sizedVal{n: 1000}, true })
	want := int64(entryOverhead) + 1000
	if st := c.Stats(Requests); st.BytesHeld != want {
		t.Fatalf("BytesHeld = %d, want Sized-reported %d", st.BytesHeld, want)
	}
}

// TestBoundEvictionKeepsAccountingConsistent: after eviction under
// pressure, bytesHeld is exactly (entries x per-entry size) — every evicted
// entry gave back exactly what it charged — and the eviction counter
// matches the entries that left.
func TestBoundEvictionKeepsAccountingConsistent(t *testing.T) {
	c := New(Schedule)
	key := func(i int) string { return fmt.Sprintf("key%04d", i) }
	val := make([]byte, 100)
	per := sizeOf(val)
	cap := 20 * per
	c.Bound(Schedule, cap)
	const n = 200
	for i := 0; i < n; i++ {
		c.Do(Schedule, tkey(key(i)), func() (any, bool) { return val, true })
	}
	st := c.Stats(Schedule)
	if st.BytesHeld > cap {
		t.Fatalf("BytesHeld %d exceeds cap %d", st.BytesHeld, cap)
	}
	if st.BytesHeld != int64(st.Entries)*per {
		t.Fatalf("BytesHeld %d != %d entries x %d bytes", st.BytesHeld, st.Entries, per)
	}
	if st.Evictions != int64(n-st.Entries) {
		t.Fatalf("Evictions = %d, want %d (inserted %d, resident %d)",
			st.Evictions, n-st.Entries, n, st.Entries)
	}
	if st.Entries == 0 {
		t.Fatal("everything was evicted; cap should hold ~20 entries")
	}
}

// --- the cap invariant, property-tested ---

// TestQuickBytesHeldNeverExceedsCap is the sequential property test: for
// any random insert workload and cap, bytes_held <= cap after every single
// operation.
func TestQuickBytesHeldNeverExceedsCap(t *testing.T) {
	f := func(capSeed uint16, ops []uint16) bool {
		cap := int64(capSeed)%8192 + 512
		c := New(Schedule)
		c.Bound(Schedule, cap)
		for _, op := range ops {
			key := fmt.Sprintf("k%d", op%64)
			size := int(op) % 2048
			c.Do(Schedule, tkey(key), func() (any, bool) { return make([]byte, size), true })
			if held := c.Stats(Schedule).BytesHeld; held > cap {
				t.Logf("cap %d: bytes_held %d after inserting %d bytes under key %q",
					cap, held, size, key)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBoundCapHeldUnderConcurrency is the concurrent version: a sampler
// goroutine asserts the invariant at every instant while writers hammer the
// space. Room is made before bytes are accounted (all under the space
// mutex), so no interleaving may show bytes_held > cap.
func TestBoundCapHeldUnderConcurrency(t *testing.T) {
	c := New(Schedule)
	const cap = 8192
	c.Bound(Schedule, cap)
	stop := make(chan struct{})
	var violated atomic.Int64
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if held := c.Stats(Schedule).BytesHeld; held > cap {
				violated.Store(held)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("g%dk%d", g, rng.Intn(200))
				size := rng.Intn(512)
				c.Do(Schedule, tkey(key), func() (any, bool) { return make([]byte, size), true })
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	if v := violated.Load(); v != 0 {
		t.Fatalf("sampler saw bytes_held %d > cap %d", v, cap)
	}
	if st := c.Stats(Schedule); st.Evictions == 0 {
		t.Fatalf("workload caused no evictions (stats %+v); test is not exercising the sweep", st)
	}
}

// --- singleflight safety ---

// TestBoundEvictionNeverDropsInflight: an entry still being computed has no
// accounted bytes and must survive any eviction storm — its waiters would
// otherwise block forever on a channel nobody closes.
func TestBoundEvictionNeverDropsInflight(t *testing.T) {
	c := New(Schedule)
	c.Bound(Schedule, 2048)
	started := make(chan struct{})
	release := make(chan struct{})
	var computes atomic.Int64
	var wg sync.WaitGroup
	results := make([]any, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.Do(Schedule, tkey("slow"), func() (any, bool) {
				computes.Add(1)
				close(started)
				<-release
				return "slow-value", true
			})
		}(i)
	}
	<-started
	// Eviction storm while "slow" is in flight: far more bytes than the cap.
	for i := 0; i < 500; i++ {
		c.Do(Schedule, tkey(fmt.Sprintf("flood%d", i)), func() (any, bool) { return make([]byte, 128), true })
	}
	if st := c.Stats(Schedule); st.Evictions == 0 {
		t.Fatalf("flood caused no evictions (stats %+v); test is not exercising the sweep", st)
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1 (in-flight entry was dropped)", n)
	}
	for i, r := range results {
		if r != "slow-value" {
			t.Fatalf("caller %d got %v, want the singleflighted value", i, r)
		}
	}
}

// --- oversize values ---

func TestBoundOversizeValueServedButNotRetained(t *testing.T) {
	c := New(Requests)
	c.Bound(Requests, 512)
	calls := 0
	big := func() (any, bool) { calls++; return make([]byte, 4096), true }
	v := c.Do(Requests, tkey("big"), big)
	if b, ok := v.([]byte); !ok || len(b) != 4096 {
		t.Fatalf("oversize Do = %T(%v), want the 4096-byte value", v, v)
	}
	st := c.Stats(Requests)
	if st.OversizeDrops != 1 || st.Entries != 0 || st.BytesHeld != 0 {
		t.Fatalf("stats = %+v, want 1 oversize drop, nothing resident", st)
	}
	// Not retained: the next call recomputes.
	c.Do(Requests, tkey("big"), big)
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (oversize value must not be retained)", calls)
	}
}

// --- equivalence with the unbounded cache ---

// TestQuickBoundedMatchesUnbounded: bounding changes only what stays
// resident, never what Do returns — for any workload, a bounded cache and
// an unbounded one yield identical values call by call.
func TestQuickBoundedMatchesUnbounded(t *testing.T) {
	f := func(ops []uint8) bool {
		bounded, unbounded := New(Schedule), New(Schedule)
		bounded.Bound(Schedule, 700) // tight: a few entries fit
		for _, op := range ops {
			key := fmt.Sprintf("k%d", op%16)
			mk := func() (any, bool) { return "v:" + key, true }
			if bounded.Do(Schedule, tkey(key), mk) != unbounded.Do(Schedule, tkey(key), mk) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- configuration edge cases ---

func TestBoundNilAndNonPositiveAreNoOps(t *testing.T) {
	var nilCache *Cache
	nilCache.Bound(Schedule, 1024) // must not panic

	c := New(Requests, Schedule)
	c.Bound(Schedule, 0)
	c.Bound(Requests, -1)
	for i := 0; i < 100; i++ {
		c.Do(Schedule, tkey(fmt.Sprintf("k%d", i)), func() (any, bool) { return make([]byte, 1024), true })
	}
	st := c.Stats(Schedule)
	if st.CapBytes != 0 || st.Evictions != 0 || st.BytesHeld != 0 || st.Entries != 100 {
		t.Fatalf("unbounded space tracked bounded-tier state: %+v", st)
	}
}
