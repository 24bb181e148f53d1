// Package scratch provides pooled, typed arena scratch memory for the
// evaluation hot path.
//
// The exploration loop builds and tears down the same short-lived working
// state millions of times per sweep: schedulers' dense occupancy tables,
// ASAP/ALAP windows, topological orders, fingerprint key buffers. Allocating
// those from the garbage-collected heap made memory traffic the dominant
// cost of an exploration (BENCH_5: ~603k allocs and ~106 MB churned per
// run). An Arena instead carves typed slices out of reusable backing chunks:
// a grab is a bump-pointer slice plus a memclr, a Reset recycles everything
// at once, and a sync.Pool keeps one warm arena per worker.
//
// Safety model: every grab returns a zeroed slice, unconditionally — the
// zeroing happens at grab time, not at Reset time, so a recycled arena whose
// memory still holds a previous evaluation's state (or the garbage the
// tests poison it with) can never leak values into the next user. Grabs are
// valid until the arena is Reset or Put; they must not be retained beyond
// that, and must never be returned to callers outside the arena's scope.
// An Arena is single-goroutine state: share nothing, Get one per worker.
package scratch

import (
	"sync"
)

// minChunk is the smallest backing chunk, in elements. Chunks double until
// a grab fits, so pathological grab sizes cost O(log n) chunks.
const minChunk = 1024

// chunked is a bump allocator over a list of backing chunks of one type.
// Chunks are retained across resets, so a warmed-up arena allocates nothing.
type chunked[T any] struct {
	chunks [][]T
	ci     int // index of the chunk grabs come from
	off    int // used prefix of the current chunk
}

// grab returns a zeroed slice of length and capacity n. The full-capacity
// slice expression keeps neighbouring grabs from aliasing through append.
func (c *chunked[T]) grab(n int) []T {
	if n == 0 {
		return nil
	}
	for {
		if c.ci < len(c.chunks) {
			ch := c.chunks[c.ci]
			if c.off+n <= len(ch) {
				s := ch[c.off : c.off+n : c.off+n]
				c.off += n
				clear(s)
				return s
			}
			// The current chunk's tail is too small: leave it and move on
			// (the waste is bounded by one grab per chunk).
			c.ci++
			c.off = 0
			continue
		}
		size := minChunk
		for size < n {
			size *= 2
		}
		c.chunks = append(c.chunks, make([]T, size))
	}
}

// reset makes all backing chunks reusable. Previously grabbed slices keep
// their memory (nothing is freed) but will be handed out again: the arena
// owner must not use them past this point.
func (c *chunked[T]) reset() {
	c.ci, c.off = 0, 0
}

// Arena hands out zeroed typed scratch slices and recycles all of them at
// once on Reset. The zero Arena is ready to use. All methods are safe on a
// nil *Arena: they fall back to plain heap allocation, so arena-aware code
// paths need no branching at call sites.
type Arena struct {
	ints  chunked[int]
	f64s  chunked[float64]
	u64s  chunked[uint64]
	bytes chunked[byte]
	strs  chunked[string]
}

// Ints returns a zeroed []int of length n, valid until Reset.
func (a *Arena) Ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return a.ints.grab(n)
}

// Float64s returns a zeroed []float64 of length n, valid until Reset.
func (a *Arena) Float64s(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return a.f64s.grab(n)
}

// Uint64s returns a zeroed []uint64 of length n, valid until Reset.
func (a *Arena) Uint64s(n int) []uint64 {
	if a == nil {
		return make([]uint64, n)
	}
	return a.u64s.grab(n)
}

// Bytes returns a zeroed []byte of length n, valid until Reset.
func (a *Arena) Bytes(n int) []byte {
	if a == nil {
		return make([]byte, n)
	}
	return a.bytes.grab(n)
}

// Buf returns an empty []byte with capacity at least n, for append-style
// key building. Unlike Bytes, the backing memory is not zeroed: the
// contract is that a Buf is only ever written through append before being
// read, so stale contents are unobservable. Appends beyond the capacity
// fall back to the heap as usual — correct, just not recycled.
func (a *Arena) Buf(n int) []byte {
	if a == nil {
		return make([]byte, 0, n)
	}
	b := a.bytes.grab(n)
	return b[:0]
}

// Strings returns a zeroed []string of length n, valid until Reset.
func (a *Arena) Strings(n int) []string {
	if a == nil {
		return make([]string, n)
	}
	return a.strs.grab(n)
}

// Reset recycles all backing memory: every slice previously handed out is
// invalidated and will be reissued (zeroed) by later grabs.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.ints.reset()
	a.f64s.reset()
	a.u64s.reset()
	a.bytes.reset()
	a.strs.reset()
}

// pool keeps warm arenas for reuse across evaluations. sync.Pool is already
// per-P sharded, so Get/Put from many workers do not contend, and idle
// arenas are released to the GC under memory pressure.
var pool = sync.Pool{New: func() any { return new(Arena) }}

// Get returns a ready arena, warm when one is available. The caller owns it
// exclusively until Put.
func Get() *Arena {
	return pool.Get().(*Arena)
}

// Put resets the arena and makes it available for reuse. The caller must
// not touch the arena or any slice grabbed from it afterwards.
func Put(a *Arena) {
	if a == nil {
		return
	}
	a.Reset()
	pool.Put(a)
}
