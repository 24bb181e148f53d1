package reuse

import (
	"context"
	"math"
	"math/bits"

	"repro/internal/obs"
)

// window is the stack-distance engine a Stream feeds. It keeps the top of
// the LRU stack — the at most p.depth most recently used distinct addresses —
// as marks in a recency-ordered slot array: every access takes the next
// free slot, and each live address's latest slot is marked in a bitset.
// The stack distance of a re-access is the number of marks after its
// previous slot plus its own, live − rank(previous) + 1, where rank counts
// marks up to a slot: one walk of a Fenwick tree over the bitset's 64-slot
// words plus a popcount. The word that next falls in enters the tree only
// once it is full, so marking a new slot costs no tree walk.
//
// With 2 × min(p.depth, array words) slots, the slots run out only
// when at least half of them are dead; compact then moves the live marks to
// the front and rebuilds the tree in linear time. When a new address would
// make p.depth+1 live ones, the oldest is evicted: p.depth distinct addresses
// follow it, so its next access has a distance beyond p.depth and counts as
// far. Every distance up to p.depth is therefore exact.
type window struct {
	p *Profile // p.depth is the largest distance tracked
	// last maps each address to 0 before its first access, its latest
	// slot + 1 while it is live, and evicted after it left the window.
	last []int32
	addr []int32  // slot -> the address that took it
	bits []uint64 // bit s marks slot s as its address's latest
	tree fenwick  // marked slots per full bitset word (the words below next's)
	live int      // marked slots
	next int      // next free slot
	old  int      // evict cursor: no slot below it is marked
	seen int      // addresses handed to feed, processed or not
	done <-chan struct{}
	stop bool // ctx expired: feed ignores the rest of the trace
}

// newWindow sizes a window that tracks distances up to depth for the
// trace of an array of words words, whose addresses lie in [0, words). It
// polls ctx's expiry every analyzeCheckInterval addresses.
func newWindow(ctx context.Context, depth, words int) *window {
	w := min(depth, words) // the window holds at most the array's words
	nw := (2*w + 63) / 64
	return &window{
		p:    &Profile{hist: make([]uint64, w+1), depth: depth},
		last: make([]int32, words),
		addr: make([]int32, 2*w),
		bits: make([]uint64, nw),
		tree: make(fenwick, nw+1),
		done: ctx.Done(),
	}
}

// feed processes the addresses of c in trace order. At every multiple of
// analyzeCheckInterval processed addresses it polls the context; once that
// has expired, feed ignores the rest of the trace, and the profile is that
// of the prefix processed so far.
func (w *window) feed(c []int32) {
	w.seen += len(c)
	for len(c) > 0 && !w.stop {
		t := int(w.p.total)
		if w.done != nil && t > 0 && t%analyzeCheckInterval == 0 {
			select {
			case <-w.done:
				w.stop = true
				return
			default:
			}
		}
		// Run unchecked up to the next poll position or the chunk's end.
		seg := c[:min(len(c), analyzeCheckInterval-t%analyzeCheckInterval)]
		c = c[len(seg):]
		w.run(seg)
	}
}

// run processes seg without polling.
func (w *window) run(seg []int32) {
	p := w.p
	for _, a := range seg {
		if w.next == len(w.addr) {
			w.compact()
		}
		t := w.next
		prev := w.last[a]
		w.last[a] = int32(t) + 1
		switch {
		case prev > 0: // live at slot prev-1
			s := int(prev - 1)
			p.hist[w.live-w.rank(s)+1]++
			w.unmark(s)
		case prev == 0:
			p.cold++
			w.admit()
		default: // evicted
			p.far++
			w.admit()
		}
		w.bits[t>>6] |= 1 << (t & 63)
		w.addr[t] = a
		if w.next++; w.next&63 == 0 {
			// t's word is full: its marks enter the tree.
			w.tree.add(t>>6, int32(bits.OnesCount64(w.bits[t>>6])))
		}
	}
	p.total += uint64(len(seg))
}

// rank returns the number of marked slots in [0, s].
func (w *window) rank(s int) int {
	i := s >> 6
	return int(w.tree.sum(i-1)) + bits.OnesCount64(w.bits[i]&(uint64(2)<<(s&63)-1))
}

// admit makes room for one more live address, evicting the oldest when
// p.depth are live.
func (w *window) admit() {
	if w.live < w.p.depth {
		w.live++
		return
	}
	for {
		if b := w.bits[w.old>>6] >> (w.old & 63); b != 0 {
			w.old += bits.TrailingZeros64(b)
			break
		}
		w.old = (w.old | 63) + 1
	}
	w.unmark(w.old)
	w.last[w.addr[w.old]] = evicted
}

// unmark clears slot s, which is below next.
func (w *window) unmark(s int) {
	w.bits[s>>6] &^= 1 << (s & 63)
	if s>>6 < w.next>>6 {
		w.tree.add(s>>6, -1)
	}
}

// compact moves the live slots, in order, to the front of the slot array
// and rebuilds the bitset and the tree.
func (w *window) compact() {
	k := 0
	for i, b := range w.bits {
		for ; b != 0; b &= b - 1 {
			a := w.addr[i<<6+bits.TrailingZeros64(b)]
			w.addr[k] = a
			w.last[a] = int32(k) + 1
			k++
		}
	}
	clear(w.bits)
	clear(w.tree)
	for s := 0; s < k; s += 64 {
		n := min(k-s, 64)
		w.bits[s>>6] = math.MaxUint64 >> (64 - n)
		if n == 64 {
			w.tree[s>>6+1] = 64
		}
	}
	w.tree.build()
	w.next, w.old = k, 0
}

// finish trims the histogram to the largest recorded distance and returns
// the profile. Under a non-nil span it records the trace length, the cold
// and far counts, where a truncated analysis stopped, and the processed
// accesses.
func (w *window) finish(sp *obs.Span) *Profile {
	p := w.p
	top := len(p.hist) - 1
	for top > 0 && p.hist[top] == 0 {
		top--
	}
	p.hist = p.hist[:top+1]
	if sp != nil {
		sp.SetInt("trace_len", int64(w.seen))
		sp.SetInt("cold", int64(p.cold))
		sp.SetInt("far", int64(p.far))
		if p.total < uint64(w.seen) {
			sp.SetInt("truncated_at", int64(p.total))
		}
		sp.Observer().Counter("reuse.analyzed_accesses").Add(int64(p.total))
	}
	return p
}

// fenwick is a binary indexed tree over positions 0..len-2.
type fenwick []int32

func (f fenwick) add(i int, v int32) {
	for i++; i < len(f); i += i & (-i) {
		f[i] += v
	}
}

// sum returns the prefix sum over positions [0, i].
func (f fenwick) sum(i int) int32 {
	var s int32
	for i++; i > 0; i -= i & (-i) {
		s += f[i]
	}
	return s
}

// build turns f, holding each position's value at index position+1, into
// its tree in linear time.
func (f fenwick) build() {
	for i := 1; i < len(f); i++ {
		if j := i + i&(-i); j < len(f) {
			f[j] += f[i]
		}
	}
}

// evicted is the last-seen entry of an address pushed out of the window.
const evicted = -1
