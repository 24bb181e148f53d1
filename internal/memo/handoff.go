package memo

// Shard handoff support: when cluster ownership of a fingerprint range
// moves (a node joins, leaves, or is confirmed dead), the old owner ranges
// over its records (DiskTier.Range, Cache.Range) for the moved keys and the
// new owner imports them, so the receiving node starts hot instead of
// recomputing a shard's worth of cache. The memo layer stays
// cluster-agnostic: the caller reads the ring fingerprint from each key's
// word without needing the bytes the key was made from.

// Import appends one record received via shard handoff. Identical to Put on
// the log, but counted separately (DiskStats.Imported) so handoff
// effectiveness is observable apart from organic write traffic. Safe on a
// nil tier.
func (d *DiskTier) Import(sp Space, key Key, val []byte) bool {
	if d == nil {
		return false
	}
	if !d.Put(sp, key, val) {
		return false
	}
	d.imported.Add(1)
	return true
}

// Seed inserts a completed, cacheable value into the memory tier when the
// key is absent — the no-disk receiving side of a handoff. An existing
// entry (completed or in flight) always wins: handoff must never clobber a
// fresher local result or break a singleflight in progress. The entry is
// byte-accounted like any computed result, so bounded spaces keep their
// cap. Returns true when the value was installed. Safe on a nil Cache.
func (c *Cache) Seed(sp Space, key Key, val any) bool {
	if c == nil {
		return false
	}
	s := c.space(sp)
	e := &entry{done: make(chan struct{}), val: val, ok: true}
	close(e.done)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.m[key]; exists {
		return false
	}
	if s.capBytes > 0 && !s.admit(e) {
		return false
	}
	s.touch(e)
	s.m[key] = e
	return true
}

// Range calls fn for every completed cacheable entry of one keyspace until
// fn returns false — the exporting side of a handoff for the memory tier.
// In-flight entries are skipped (their value does not exist yet); entries
// completing concurrently may or may not be seen. Values are shared and
// must be treated as immutable. Safe on a nil Cache.
func (c *Cache) Range(sp Space, fn func(key Key, val any) bool) {
	if c == nil {
		return
	}
	s := c.space(sp)
	s.mu.Lock()
	keys := make([]Key, 0, len(s.m))
	entries := make([]*entry, 0, len(s.m))
	for k, e := range s.m {
		keys = append(keys, k)
		entries = append(entries, e)
	}
	s.mu.Unlock()
	for j, e := range entries {
		select {
		case <-e.done:
		default:
			continue // in flight
		}
		if !e.ok {
			continue
		}
		if !fn(keys[j], e.val) {
			return
		}
	}
}
