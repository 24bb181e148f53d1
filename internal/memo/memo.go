// Package memo provides the cross-variant evaluation cache of one
// exploration session.
//
// The paper's methodology lives on fast re-evaluation: the designer changes
// one decision (a structuring transform, a hierarchy layer, a budget point,
// an allocation count) and the physical-memory-management stage re-derives
// the cost feedback. Most of that work is identical between neighbouring
// variants — a loop untouched by the transform balances to the same
// schedule, a budget point that clamps a loop to its minimum re-derives the
// same curve, two steps prune the same conflict-pattern set. This package
// memoizes those subproblems in a per-session cache keyed by canonical
// fingerprints, so a sweep pays for each distinct subproblem once.
//
// The cache is concurrency-safe and deduplicates in-flight computations
// (singleflight): when the parallel sweep goroutines request the same key
// simultaneously, one computes and the others wait for its result instead
// of redoing the work. Each keyspace is sharded by key hash so that cache
// hits from many workers do not contend on a single mutex. A nil *Cache is
// valid everywhere and disables caching: Do simply invokes compute, the
// same idiom as the nil obs.Observer.
package memo

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Space is one keyspace of the cache. Keys from different spaces never
// collide even when their strings are equal.
type Space int

// The keyspaces of the exploration session cache.
const (
	// Schedule caches sbd.BalanceLoopContext results keyed by the loop's
	// structural fingerprint and the per-iteration budget.
	Schedule Space = iota
	// LoopPatterns caches the per-loop conflict-pattern contribution of a
	// committed schedule (the inner loop of sbd.PatternsOf).
	LoopPatterns
	// PrunedPatterns caches sbd.PrunePatterns results keyed by the pattern
	// multiset.
	PrunedPatterns
	// Ports caches sbd.RequiredPorts results keyed by the pattern multiset.
	Ports
	// Requests caches whole serving-path responses (rendered tables and
	// figures, cost JSON) keyed by the canonical request body, so identical
	// concurrent requests singleflight through one exploration and identical
	// later requests are answered from the session. Only responses whose
	// exploration ran to completion (context never canceled) may be stored.
	Requests

	numSpaces
)

// String names the keyspace (used for telemetry labels).
func (s Space) String() string {
	switch s {
	case Schedule:
		return "schedule"
	case LoopPatterns:
		return "loop_patterns"
	case PrunedPatterns:
		return "pruned_patterns"
	case Ports:
		return "ports"
	case Requests:
		return "requests"
	default:
		return fmt.Sprintf("space%d", int(s))
	}
}

// Stats is the hit/miss/dedup accounting of one keyspace.
type Stats struct {
	Hits          int64 // Do calls answered from the cache
	Misses        int64 // Do calls that ran compute
	InflightWaits int64 // Do calls that waited for a concurrent compute
	Contended     int64 // shard-lock acquisitions that had to block
	Entries       int   // cached values currently held

	// Bounded-tier accounting (zero when the space is unbounded).
	Evictions     int64 // entries evicted to stay under the byte cap
	BytesHeld     int64 // bytes currently retained (never exceeds CapBytes)
	CapBytes      int64 // the byte cap set by Bound (0 = unbounded)
	OversizeDrops int64 // computed values not retained because room could not be made

	// Disk-tier accounting (zero when no disk tier is attached).
	DiskHits   int64 // misses answered from the disk tier instead of compute
	DiskWrites int64 // cacheable results queued to the disk tier
}

// HitRate returns hits / (hits + misses), or 0 when the space is untouched.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// entry is one slot of a keyspace shard: done is closed when the
// computation finished, after val (and ok, the cacheable flag) were written
// — the close/receive pair orders the reads.
//
// When a compute finishes uncacheable while callers are blocked on it, the
// computer installs a successor entry (next) in the map before closing
// done: exactly one waiter claims the successor (the claimed CAS) and
// becomes its computer; the rest re-singleflight onto it. This replaces the
// old behaviour where every waiter looped back through the map and raced to
// become the next computer.
type entry struct {
	done    chan struct{}
	val     any
	ok      bool
	next    *entry       // successor installed on uncacheable completion
	waiters atomic.Int64 // callers blocked on done (registered under lock)
	claimed atomic.Bool  // successor takeover: first CAS winner computes

	// Bounded-tier state: bytes is the accounted size, written by retain
	// before done is closed (0 marks the entry in flight or unaccounted —
	// the eviction sweep skips those); ref is the CLOCK reference bit, set
	// on every hit and cleared for a second chance before eviction.
	bytes int64
	ref   atomic.Bool
}

// shardCount is the number of map+mutex shards per keyspace. 64 shards keep
// the parallel sweeps' cache hits from funnelling through one mutex; the
// power of two makes the hash fold a mask.
const shardCount = 64

type shard struct {
	mu sync.Mutex
	m  map[string]*entry
}

type space struct {
	id     Space
	shards [shardCount]shard

	hits, misses, waits, contended atomic.Int64

	// hist, when set by Cache.Observe, records every Do call's time-to-answer
	// (hits in nanoseconds, misses including their compute). Opt-in so bare
	// library use pays nothing.
	hist *obs.Histogram

	// Bounded tier (capBytes set by Cache.Bound before concurrent use;
	// 0 = unbounded, the default). All bytesHeld increments happen under
	// evictMu after room has been made, so bytesHeld never exceeds capBytes.
	capBytes  int64
	bytesHeld atomic.Int64
	evictions atomic.Int64
	oversize  atomic.Int64
	evictMu   sync.Mutex
	hand      int // CLOCK hand: next shard to sweep (guarded by evictMu)

	// Disk tier (set by Cache.AttachDisk before concurrent use; nil = none).
	disk                 *diskCodec
	diskHits, diskWrites atomic.Int64
}

// lock takes the shard mutex, counting acquisitions that had to block (the
// shard-contention telemetry).
func (s *space) lock(sh *shard) {
	if sh.mu.TryLock() {
		return
	}
	s.contended.Add(1)
	sh.mu.Lock()
}

// Fingerprint64 is the cache's canonical 64-bit key fingerprint: FNV-1a
// over the key bytes. It is the one hash behind shard addressing here and
// consistent-hash request routing in cluster mode — sharing it means a
// request's ring owner is also the node whose session/disk cache and
// warm-start index accumulate that key's neighbourhood. Generic over the
// key form so neither caller allocates a conversion.
func Fingerprint64[K ~string | ~[]byte](key K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// shardIndex folds the fingerprint to the shard mask. Do (string keys) and
// DoKey (byte keys) must address the same shard for equal key bytes, or the
// singleflight/dedup guarantee between the two paths breaks.
func shardIndex[K ~string | ~[]byte](key K) uint64 {
	return Fingerprint64(key) & (shardCount - 1)
}

// shardFor picks the shard of a key (FNV-1a folded to the shard mask).
func (s *space) shardFor(key string) *shard {
	return &s.shards[shardIndex(key)]
}

// shardForBytes is shardFor over the byte form of a key: identical hash, so
// Do and DoKey with equal key bytes land on the same shard.
func (s *space) shardForBytes(key []byte) *shard {
	return &s.shards[shardIndex(key)]
}

// Cache is one exploration session's memoization state. Values stored in
// the cache are shared between callers and must be treated as immutable.
type Cache struct {
	spaces [numSpaces]space
}

// New returns an empty session cache.
func New() *Cache {
	c := &Cache{}
	for i := range c.spaces {
		c.spaces[i].id = Space(i)
		for j := range c.spaces[i].shards {
			c.spaces[i].shards[j].m = make(map[string]*entry)
		}
	}
	return c
}

// Do returns the value for key in the given keyspace, running compute on a
// miss. compute returns the value and whether it may be cached: a result
// degraded by a canceled context must report false, so that later callers
// with a live context recompute it. Concurrent Do calls with the same key
// share one compute (singleflight); when that compute turns out
// uncacheable, exactly one waiter takes over as the next computer and the
// remaining waiters singleflight onto it.
//
// Safe on a nil Cache: compute runs unconditionally and nothing is
// recorded.
func (c *Cache) Do(sp Space, key string, compute func() (val any, cacheable bool)) any {
	if c == nil {
		v, _ := compute()
		return v
	}
	s := &c.spaces[sp]
	if h := s.hist; h != nil {
		start := time.Now()
		defer func() { h.Observe(time.Since(start)) }()
	}
	sh := s.shardFor(key)

	s.lock(sh)
	e, found := sh.m[key]
	if !found {
		e = &entry{done: make(chan struct{})}
		sh.m[key] = e
		sh.mu.Unlock()
		s.misses.Add(1)
		return s.runCompute(sh, key, e, compute)
	}
	select {
	case <-e.done: // finished: a plain hit, or an uncacheable chain to walk
		sh.mu.Unlock()
		if e.ok {
			s.hits.Add(1)
			s.touch(e)
			return e.val
		}
	default: // in flight: register as waiter before releasing the lock, so
		// the computer's handoff decision cannot miss us
		e.waiters.Add(1)
		sh.mu.Unlock()
		s.waits.Add(1)
	}
	return s.doSlow(sh, key, e, compute)
}

// DoKey is Do with the key passed as bytes. The evaluation hot paths build
// their canonical fingerprints into reusable scratch buffers; DoKey answers
// a hit without ever materializing a string (the m[string(key)] lookup is
// the compiler-recognized no-allocation form), and copies the bytes into a
// map key only when an entry must be created. Key bytes are not retained:
// the caller may reuse the buffer as soon as DoKey returns. Do and DoKey
// with equal key bytes address the same entry.
//
// Safe on a nil Cache, like Do.
func (c *Cache) DoKey(sp Space, key []byte, compute func() (val any, cacheable bool)) any {
	if c == nil {
		v, _ := compute()
		return v
	}
	s := &c.spaces[sp]
	if h := s.hist; h != nil {
		start := time.Now()
		defer func() { h.Observe(time.Since(start)) }()
	}
	sh := s.shardForBytes(key)

	s.lock(sh)
	e, found := sh.m[string(key)]
	if !found {
		e = &entry{done: make(chan struct{})}
		ks := string(key)
		sh.m[ks] = e
		sh.mu.Unlock()
		s.misses.Add(1)
		return s.runCompute(sh, ks, e, compute)
	}
	select {
	case <-e.done:
		sh.mu.Unlock()
		if e.ok {
			s.hits.Add(1)
			s.touch(e)
			return e.val
		}
	default:
		e.waiters.Add(1)
		sh.mu.Unlock()
		s.waits.Add(1)
	}
	return s.doSlow(sh, string(key), e, compute)
}

// doSlow resolves a Do call that could not be answered from the fast path:
// e is either finished-but-uncacheable (walk its successor chain) or in
// flight with this caller registered as a waiter.
func (s *space) doSlow(sh *shard, key string, e *entry, compute func() (val any, cacheable bool)) any {
	for {
		<-e.done
		if e.ok {
			s.hits.Add(1)
			s.touch(e)
			return e.val
		}
		if next := e.next; next != nil {
			// Uncacheable result with a successor: exactly one waiter takes
			// over the compute, the rest wait on the successor.
			if next.claimed.CompareAndSwap(false, true) {
				s.misses.Add(1)
				return s.runCompute(sh, key, next, compute)
			}
			next.waiters.Add(1)
			s.waits.Add(1)
			e = next
			continue
		}
		// Uncacheable with no successor (no waiter was registered when the
		// computer finished): re-enter through the map.
		s.lock(sh)
		e2, found := sh.m[key]
		if !found {
			e2 = &entry{done: make(chan struct{})}
			sh.m[key] = e2
			sh.mu.Unlock()
			s.misses.Add(1)
			return s.runCompute(sh, key, e2, compute)
		}
		select {
		case <-e2.done:
			sh.mu.Unlock()
		default:
			e2.waiters.Add(1)
			sh.mu.Unlock()
			s.waits.Add(1)
		}
		e = e2
	}
}

// runCompute executes compute as the owner of entry e and publishes the
// result. With a disk tier attached, the tier is consulted first: a decoded
// record is promoted into the memory tier without running compute. A
// cacheable result stays in the map (subject to the byte cap — see retain);
// an uncacheable one is removed, handing the slot to exactly one blocked
// waiter (via a successor entry) when any are registered.
func (s *space) runCompute(sh *shard, key string, e *entry, compute func() (any, bool)) any {
	if dc := s.disk; dc != nil {
		if b, ok := dc.tier.Get(s.id, key); ok {
			if v, ok := dc.dec(b); ok {
				s.diskHits.Add(1)
				e.val, e.ok = v, true
				s.retain(sh, key, e)
				close(e.done)
				return v
			}
		}
	}
	val, cacheable := compute()
	e.val, e.ok = val, cacheable
	if cacheable {
		s.retain(sh, key, e)
		if dc := s.disk; dc != nil {
			if b, ok := dc.enc(val); ok && dc.tier.Put(s.id, key, b) {
				s.diskWrites.Add(1)
			}
		}
	} else {
		s.lock(sh)
		if e.waiters.Load() > 0 {
			next := &entry{done: make(chan struct{})}
			e.next = next
			sh.m[key] = next
		} else if sh.m[key] == e {
			delete(sh.m, key)
		}
		sh.mu.Unlock()
	}
	close(e.done)
	return val
}

// Stats returns the accounting of one keyspace.
func (c *Cache) Stats(sp Space) Stats {
	if c == nil {
		return Stats{}
	}
	s := &c.spaces[sp]
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return Stats{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		InflightWaits: s.waits.Load(),
		Contended:     s.contended.Load(),
		Entries:       n,
		Evictions:     s.evictions.Load(),
		BytesHeld:     s.bytesHeld.Load(),
		CapBytes:      s.capBytes,
		OversizeDrops: s.oversize.Load(),
		DiskHits:      s.diskHits.Load(),
		DiskWrites:    s.diskWrites.Load(),
	}
}

// Publish snapshots the per-keyspace counters into the observer as gauges
// (memo.hits{space=...}, memo.misses{...}, memo.inflight_waits{...},
// memo.contended{...}, memo.entries{...}), so traces and -stats report the
// session's hit rates and shard contention. Safe on a nil Cache or nil
// Observer; idempotent (gauges, not counters).
func (c *Cache) Publish(o *obs.Observer) {
	if c == nil || o == nil {
		return
	}
	for sp := Space(0); sp < numSpaces; sp++ {
		st := c.Stats(sp)
		if st.Hits+st.Misses == 0 {
			continue
		}
		name := sp.String()
		o.Gauge(obs.Label("memo.hits", "space", name)).Set(st.Hits)
		o.Gauge(obs.Label("memo.misses", "space", name)).Set(st.Misses)
		o.Gauge(obs.Label("memo.inflight_waits", "space", name)).Set(st.InflightWaits)
		o.Gauge(obs.Label("memo.contended", "space", name)).Set(st.Contended)
		o.Gauge(obs.Label("memo.entries", "space", name)).Set(int64(st.Entries))
		if st.CapBytes > 0 {
			o.Gauge(obs.Label("memo.evictions", "space", name)).Set(st.Evictions)
			o.Gauge(obs.Label("memo.bytes_held", "space", name)).Set(st.BytesHeld)
		}
		if st.DiskHits+st.DiskWrites > 0 {
			o.Gauge(obs.Label("memo.disk_hits", "space", name)).Set(st.DiskHits)
			o.Gauge(obs.Label("memo.disk_writes", "space", name)).Set(st.DiskWrites)
		}
	}
}

// Observe enables per-keyspace lookup-duration histograms on the observer
// (memo.lookup{space=...}): every Do call records its time-to-answer,
// which for misses includes the compute. Call before the cache is used
// concurrently (NewServer wires it at construction); safe on a nil Cache
// or Observer.
func (c *Cache) Observe(o *obs.Observer) {
	if c == nil || o == nil {
		return
	}
	for sp := Space(0); sp < numSpaces; sp++ {
		c.spaces[sp].hist = o.Histogram(obs.Label("memo.lookup", "space", sp.String()))
	}
}

// StatsString renders a human-readable per-keyspace summary (the -stats
// view of the cache).
func (c *Cache) StatsString() string {
	if c == nil {
		return "(cache disabled)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %10s %10s %10s %8s %8s %8s %10s\n",
		"keyspace", "hits", "misses", "waits", "contended", "entries", "hit-rate", "evict", "bytes")
	names := make([]string, 0, int(numSpaces))
	for sp := Space(0); sp < numSpaces; sp++ {
		names = append(names, sp.String())
	}
	sort.Strings(names) // stable render independent of enum order
	for _, name := range names {
		var sp Space
		for s := Space(0); s < numSpaces; s++ {
			if s.String() == name {
				sp = s
			}
		}
		st := c.Stats(sp)
		fmt.Fprintf(&b, "%-16s %10d %10d %10d %10d %8d %7.1f%% %8d %10d\n",
			name, st.Hits, st.Misses, st.InflightWaits, st.Contended, st.Entries, 100*st.HitRate(),
			st.Evictions, st.BytesHeld)
	}
	return b.String()
}
