// Package memo provides the single-flight memo behind every evaluation
// cache of the exploration.
//
// The paper's methodology lives on fast re-evaluation: the designer changes
// one decision (a structuring transform, a hierarchy layer, a budget point,
// an allocation count) and the physical-memory-management stage re-derives
// the cost feedback. Most of that work is identical between neighbouring
// variants — a loop untouched by the transform balances to the same
// schedule, two budget points that leave the same conflict patterns pose
// the same assignment problem, a repeated request renders the same
// response. This package memoizes those results, so a sweep pays for each
// distinct subproblem once. Every entry is keyed by a fixed-size Key, a
// SHA-256 digest of the subproblem's canonical bytes (see key.go): the
// cache holds 32 bytes per key, however long the fingerprint it came from.
//
// A Cache holds only the keyspaces New was given, and each keyspace lives
// as long as what re-reads it:
//
//   - one methodology run (core.RunAllContext) owns a cache of Schedule
//     (per-loop schedules) and Assignments (assignment answers), dropped
//     when the run returns;
//   - the server session owns a cache of Requests (whole serving-path
//     responses, keyed by the canonical request) and Aliases (the raw bytes
//     of a request mapped to its Requests key, so a repeated request skips
//     the parse that derives the canonical form).
//
// The cache is concurrency-safe and deduplicates in-flight computations
// (singleflight): when the parallel sweep goroutines request the same key
// simultaneously, one computes and the others wait for its result instead
// of redoing the work. Each keyspace is one map under one mutex. A nil
// *Cache is valid everywhere and disables caching: Do simply invokes
// compute, the same idiom as the nil obs.Observer.
package memo

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Space is one keyspace of the cache: equal Keys in different spaces
// address different entries. The value is also the space byte of every
// disk-tier record, so it never changes once assigned.
type Space int

// The keyspaces. Ids 1-3 belonged to deleted keyspaces and stay
// unassigned.
const (
	// Schedule caches the per-loop schedules sbd.DistributeContext
	// computes within one methodology run, keyed by the digest of the
	// loop's structural fingerprint with the per-iteration budget as the
	// key's word.
	Schedule Space = 0
	// Requests caches whole serving-path responses (rendered tables and
	// figures, cost JSON) keyed by the digest of the canonical request,
	// with its ring fingerprint as the key's word, so identical concurrent
	// requests singleflight through one exploration and identical later
	// requests are answered from the session. Only responses whose
	// exploration ran to completion (context never canceled) may be stored.
	Requests Space = 4
	// Aliases maps the digest of one request's raw bytes to what a
	// successful parse of those bytes produced — its Requests key, mode,
	// label, deadline and knobs, never the decoded spec — so a repeated
	// body reaches the Requests keyspace without being decoded again. The
	// key is NewKey(raw, 0): SHA-256, because the bytes come from
	// untrusted clients and a collision would answer one request with
	// another's response. Bodies that fail to parse are never stored, and
	// the space has no disk tier.
	Aliases Space = 5
	// Assignments caches the assignment answers of one methodology run,
	// keyed by the digest of everything the search reads (core's
	// searchKey): the structuring winner comes back as the no-hierarchy
	// variant, and budget points whose schedules leave the same conflict
	// patterns pose one problem. Only answers whose search ran to
	// completion (context never canceled) may be stored.
	Assignments Space = 6
)

// Spaces lists every keyspace: the ones a disk tier indexes and reads
// records of.
var Spaces = [...]Space{Aliases, Assignments, Requests, Schedule}

// String names the keyspace (used for telemetry labels).
func (s Space) String() string {
	switch s {
	case Schedule:
		return "schedule"
	case Requests:
		return "requests"
	case Aliases:
		return "aliases"
	case Assignments:
		return "assignments"
	default:
		return fmt.Sprintf("space%d", int(s))
	}
}

// live reports whether s is one of Spaces.
func (s Space) live() bool {
	for _, sp := range Spaces {
		if sp == s {
			return true
		}
	}
	return false
}

// Stats is the hit/miss/dedup accounting of one keyspace.
type Stats struct {
	Hits          int64 // Do calls answered from the cache
	Misses        int64 // Do calls that ran compute
	InflightWaits int64 // Do calls that waited for a concurrent compute
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

// entry is one slot of a keyspace: done is closed when the computation
// finished, after val (and ok, the cacheable flag) were written — the
// close/receive pair orders the reads.
//
// An uncacheable compute deletes its entry from the map before closing
// done, so an entry found in the map is in flight or holds a cacheable
// value. The callers blocked on it re-enter through the map, where the
// first becomes the next computer and the rest singleflight onto it.
type entry struct {
	done chan struct{}
	val  any
	ok   bool

	// Bounded-tier state: bytes is the accounted size, written under the
	// space mutex by retain before done is closed (0 marks the entry in
	// flight or unaccounted — the eviction sweep skips those); ref is the
	// reference bit, set on every hit and cleared for a second chance
	// before eviction.
	bytes int64
	ref   atomic.Bool
}

type space struct {
	id Space

	mu sync.Mutex
	m  map[Key]*entry

	hits, misses, waits atomic.Int64

	// hist, when set by Cache.Observe, records every Do call's time-to-answer
	// (hits in nanoseconds, misses including their compute). Opt-in so bare
	// library use pays nothing.
	hist *obs.Histogram

	// Bounded tier (capBytes set by Cache.Bound before concurrent use;
	// 0 = unbounded, the default). The accounting is guarded by mu, and
	// room is made before bytes are added, so bytesHeld never exceeds
	// capBytes.
	capBytes                       int64
	bytesHeld, evictions, oversize int64

	// Disk tier (set by Cache.AttachDisk before concurrent use; nil = none).
	disk                 *diskCodec
	diskHits, diskWrites atomic.Int64
}

// Fingerprint64 is the ring fingerprint of canonical bytes: FNV-1a over
// them. Cluster mode routes requests by it on the consistent-hash ring, and
// a Requests Key carries it as its word. Generic over the input form so
// neither strings nor byte slices allocate a conversion.
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

// Cache is the memoization state of one owner: a methodology run or a
// server session. Values stored in the cache are shared between callers
// and must be treated as immutable.
type Cache struct {
	spaces []space
}

// New returns an empty cache holding the given keyspaces. Every method
// that names a keyspace the cache does not hold panics.
func New(spaces ...Space) *Cache {
	c := &Cache{spaces: make([]space, len(spaces))}
	for i, sp := range spaces {
		c.spaces[i].id = sp
		c.spaces[i].m = make(map[Key]*entry)
	}
	return c
}

// space returns the state of keyspace sp; a keyspace the cache does not
// hold is a bug in the caller.
func (c *Cache) space(sp Space) *space {
	for i := range c.spaces {
		if c.spaces[i].id == sp {
			return &c.spaces[i]
		}
	}
	panic(fmt.Sprintf("memo: keyspace %v not held", sp))
}

// Do returns the value for key in the given keyspace, running compute on a
// miss. compute returns the value and whether it may be cached: a result
// degraded by a canceled context must report false, so that later callers
// with a live context recompute it. Concurrent Do calls with the same key
// share one compute (singleflight); when that compute turns out
// uncacheable, its waiters retry through the map, so exactly one of them
// takes over as the next computer and the rest singleflight onto it.
//
// Safe on a nil Cache: compute runs unconditionally and nothing is
// recorded.
func (c *Cache) Do(sp Space, key Key, compute func() (val any, cacheable bool)) any {
	if c == nil {
		v, _ := compute()
		return v
	}
	s := c.space(sp)
	if h := s.hist; h != nil {
		start := time.Now()
		defer func() { h.Observe(time.Since(start)) }()
	}

	for {
		s.mu.Lock()
		e, found := s.m[key]
		if !found {
			e = &entry{done: make(chan struct{})}
			s.m[key] = e
			s.mu.Unlock()
			s.misses.Add(1)
			return s.runCompute(key, e, compute)
		}
		s.mu.Unlock()
		select {
		case <-e.done:
		default: // in flight
			s.waits.Add(1)
			<-e.done
		}
		if e.ok {
			s.hits.Add(1)
			s.touch(e)
			return e.val
		}
		// Uncacheable: its computer deleted it; retry through the map.
	}
}

// runCompute executes compute as the owner of entry e and publishes the
// result. With a disk tier attached, the tier is consulted first: a decoded
// record is promoted into the memory tier without running compute. A
// cacheable result stays in the map (subject to the byte cap — see retain);
// an uncacheable one is removed before done closes, so its waiters find
// the slot free.
func (s *space) runCompute(key Key, e *entry, compute func() (any, bool)) any {
	if dc := s.disk; dc != nil {
		if b, ok := dc.tier.Get(s.id, key); ok {
			if v, ok := dc.dec(b); ok {
				s.diskHits.Add(1)
				e.val, e.ok = v, true
				s.retain(key, e)
				close(e.done)
				return v
			}
		}
	}
	val, cacheable := compute()
	e.val, e.ok = val, cacheable
	if cacheable {
		s.retain(key, e)
		if dc := s.disk; dc != nil {
			if b, ok := dc.enc(val); ok && dc.tier.Put(s.id, key, b) {
				s.diskWrites.Add(1)
			}
		}
	} else {
		s.mu.Lock()
		if s.m[key] == e {
			delete(s.m, key)
		}
		s.mu.Unlock()
	}
	close(e.done)
	return val
}

// Stats returns the accounting of one keyspace.
func (c *Cache) Stats(sp Space) Stats {
	if c == nil {
		return Stats{}
	}
	s := c.space(sp)
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		InflightWaits: s.waits.Load(),
		Entries:       len(s.m),
		Evictions:     s.evictions,
		BytesHeld:     s.bytesHeld,
		CapBytes:      s.capBytes,
		OversizeDrops: s.oversize,
		DiskHits:      s.diskHits.Load(),
		DiskWrites:    s.diskWrites.Load(),
	}
}

// Publish snapshots the counters of every keyspace the cache holds into
// the observer as gauges (memo.hits{space=...}, memo.misses{...},
// memo.inflight_waits{...}, memo.entries{...}), so traces and -stats
// report the hit rates. Safe on a nil Cache or nil Observer; idempotent
// (gauges, not counters).
func (c *Cache) Publish(o *obs.Observer) {
	if c == nil || o == nil {
		return
	}
	for i := range c.spaces {
		sp := c.spaces[i].id
		st := c.Stats(sp)
		if st.Hits+st.Misses == 0 {
			continue
		}
		name := sp.String()
		o.Gauge(obs.Label("memo.hits", "space", name)).Set(st.Hits)
		o.Gauge(obs.Label("memo.misses", "space", name)).Set(st.Misses)
		o.Gauge(obs.Label("memo.inflight_waits", "space", name)).Set(st.InflightWaits)
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
	for i := range c.spaces {
		s := &c.spaces[i]
		s.hist = o.Histogram(obs.Label("memo.lookup", "space", s.id.String()))
	}
}
