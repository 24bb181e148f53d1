package memo

// Bounded tier: per-keyspace byte caps with second-chance eviction.
//
// An unbounded session cache OOMs a long-lived daemon under sustained
// diverse traffic — every distinct request's response and alias stays
// resident forever. Bound caps one keyspace at a byte budget; when a new
// cacheable result would push the space over its cap, resident entries are
// evicted (entries hit since the last sweep get a second chance) until it
// fits. Two invariants hold, both pinned by property tests:
//
//   - bytesHeld never exceeds capBytes, at any instant: room is made
//     *before* the new entry's bytes are accounted, under the space mutex.
//   - an in-flight singleflight entry is never evicted: the sweep skips
//     entries whose bytes are still 0 (bytes is written by retain, before
//     done is closed), so waiters can never lose the computation they are
//     blocked on.
//
// An unbounded space (the default) takes none of these paths: retain
// returns immediately and Do's hit path only checks capBytes.

// Sized lets cached values report their retained footprint for byte
// accounting. Values that do not implement Sized are estimated from their
// dynamic type (exact for []byte and string payloads, a flat guess
// otherwise — accounting only needs the same number added and removed).
type Sized interface {
	CacheBytes() int
}

// entryOverhead approximates the fixed per-entry cost: the map slot with
// its Key, the entry struct and its done channel.
const entryOverhead = 160 + keyLen

// defaultValueSize is the estimate for values that are neither Sized nor a
// byte/string payload (schedules).
const defaultValueSize = 256

func sizeOf(val any) int64 {
	n := int64(entryOverhead)
	switch v := val.(type) {
	case Sized:
		return n + int64(v.CacheBytes())
	case []byte:
		return n + int64(len(v))
	case string:
		return n + int64(len(v))
	}
	return n + defaultValueSize
}

// Bound caps the bytes one keyspace may retain; entries are evicted to
// stay under the cap. maxBytes <= 0 leaves the space unbounded. Call before
// the cache is used concurrently (like Observe); safe on a nil Cache.
func (c *Cache) Bound(sp Space, maxBytes int64) {
	if c == nil || maxBytes <= 0 {
		return
	}
	c.space(sp).capBytes = maxBytes
}

// touch marks an entry recently used (the reference bit). Only bounded
// spaces pay the atomic store.
func (s *space) touch(e *entry) {
	if s.capBytes > 0 {
		e.ref.Store(true)
	}
}

// retain accounts a freshly computed (or disk-promoted) entry against the
// space's byte cap, evicting older entries first so bytesHeld never
// exceeds the cap. When room cannot be made — the value alone is larger
// than the cap, or everything resident is in flight — the entry is removed
// from the map instead: waiters still read its value (ok is true), later
// callers recompute. No-op for unbounded spaces.
func (s *space) retain(key Key, e *entry) {
	if s.capBytes <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.admit(e) && s.m[key] == e {
		delete(s.m, key)
	}
}

// admit accounts entry e against the byte cap, making room first. Called
// under mu on a bounded space. Returns false, counting an oversize drop,
// when room cannot be made; the caller must then not keep e resident.
func (s *space) admit(e *entry) bool {
	size := sizeOf(e.val)
	if !s.makeRoom(size) {
		s.oversize++
		return false
	}
	e.bytes = size
	s.bytesHeld += size
	return true
}

// makeRoom evicts resident entries until need more bytes fit under the
// cap. Called under mu. The sweep walks the map; a set reference bit buys
// the entry one more pass, in-flight entries (bytes still 0) are never
// candidates. Three full passes bound the sweep: the first two give every
// resident entry its second chance, the third catches entries
// re-referenced mid-sweep. Returns false when the space still cannot fit
// need bytes (then the caller must not account the entry).
func (s *space) makeRoom(need int64) bool {
	if need > s.capBytes {
		return false
	}
	target := s.capBytes - need
	for pass := 0; pass < 3 && s.bytesHeld > target; pass++ {
		for k, e := range s.m {
			if e.bytes == 0 {
				continue // in flight: never evict a singleflight target
			}
			if e.ref.CompareAndSwap(true, false) {
				continue // recently used: second chance
			}
			delete(s.m, k)
			s.bytesHeld -= e.bytes
			s.evictions++
			if s.bytesHeld <= target {
				return true
			}
		}
	}
	return s.bytesHeld <= target
}
