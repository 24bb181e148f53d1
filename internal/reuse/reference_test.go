package reuse

import (
	"container/list"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// analyzeReference is the whole-trace analysis the window replaced, kept as
// the reference the window must match: a Fenwick tree over every trace
// position, in which a 1 marks the most recent occurrence of each distinct
// address, and a last-seen table of trace positions.
func analyzeReference(chunks [][]int32) *Profile {
	var flat []int32
	for _, c := range chunks {
		flat = append(flat, c...)
	}
	n := len(flat)
	p := &Profile{hist: make([]uint64, 1), cap: maxTracked, total: uint64(n)}
	if n == 0 {
		return p
	}
	bit := make(fenwick, n+1)
	last := make(map[int32]int, 1024)
	for t, a := range flat {
		if lt, ok := last[a]; ok {
			// Distinct addresses touched strictly between lt and t, plus
			// the element's own stack slot.
			d := int(bit.sum(t-1)-bit.sum(lt)) + 1
			if d > p.cap {
				p.far++
			} else {
				for len(p.hist) <= d {
					p.hist = append(p.hist, 0)
				}
				p.hist[d]++
			}
			bit.add(lt, -1)
		} else {
			p.cold++
		}
		last[a] = t
		bit.add(t, 1)
	}
	return p
}

// naiveProfile is the profile of addrs, tracking distances up to tracked,
// from the stack distances of the O(n²) LRU simulation.
func naiveProfile(addrs []int32, tracked int) *Profile {
	p := &Profile{hist: make([]uint64, 1), cap: tracked, total: uint64(len(addrs))}
	var lru []int32 // most recent first
	for _, a := range addrs {
		found := -1
		for i, v := range lru {
			if v == a {
				found = i
				break
			}
		}
		switch d := found + 1; {
		case found < 0:
			p.cold++
		case d > tracked:
			p.far++
		default:
			for len(p.hist) <= d {
				p.hist = append(p.hist, 0)
			}
			p.hist[d]++
		}
		if found >= 0 {
			lru = append(lru[:found], lru[found+1:]...)
		}
		lru = append([]int32{a}, lru...)
	}
	return p
}

// lruMisses simulates a fully associative LRU buffer of capacity words
// over addrs and counts its misses: a map from address to its element in a
// recency list, most recent at the front, evicting from the back. It shares
// no code or data structure with the stack-distance engines.
func lruMisses(addrs []int32, capacity int) uint64 {
	order := list.New()
	where := make(map[int32]*list.Element, capacity)
	var misses uint64
	for _, a := range addrs {
		if e, ok := where[a]; ok {
			order.MoveToFront(e)
			continue
		}
		misses++
		if order.Len() == capacity {
			delete(where, order.Remove(order.Back()).(int32))
		}
		where[a] = order.PushFront(a)
	}
	return misses
}

// TestWindowMatchesReference: the profile a Stream computes equals the
// whole-trace reference on random traces, dense or spread over a large
// extent, handed over in random chunk splits.
func TestWindowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		n := rng.Intn(3000)
		if i%20 == 0 {
			n = analyzeCheckInterval + rng.Intn(5000)
		}
		flat := randomTrace(rng, n, i%2 == 1)
		want := analyzeReference([][]int32{flat})
		chunks := splitAt(flat, randomCuts(rng, n, rng.Intn(8)))
		if got := streamProfile(t, context.Background(), extentOf(flat), chunks...); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: %d addresses: stream %+v, reference %+v", i, n, got, want)
		}
	}
}

// TestEncodeTraceMatchesReference: for the 16 image × quantizer traces the
// methodology analyzes at 256², the profile streamed beside the encode
// equals the reference, and it predicts the misses of a simulated LRU
// buffer exactly. By Mattson's inclusion property a buffer of C words
// misses on the cold accesses and on every re-access at stack distance
// above C; the sizes are the 12-word and 1 280-word hierarchy layers at
// 256² and a 4 096-word buffer.
func TestEncodeTraceMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		for _, quant := range []int{1, 4, 7, 10} {
			t.Run(fmt.Sprintf("image%d/q%d", seed, quant), func(t *testing.T) {
				got, flat := streamEncode(t, context.Background(), seed, quant)
				if want := analyzeReference([][]int32{flat}); !reflect.DeepEqual(got, want) {
					t.Fatalf("streamed profile (total %d, cold %d, far %d, %d distances) differs from the reference (total %d, cold %d, far %d, %d distances)",
						got.total, got.cold, got.far, len(got.hist), want.total, want.cold, want.far, len(want.hist))
				}
				for _, words := range []int{12, 1280, 4096} {
					want := lruMisses(flat, words)
					predicted := got.cold + got.far
					for d := words + 1; d < len(got.hist); d++ {
						predicted += got.hist[d]
					}
					if predicted != want {
						t.Fatalf("%d-word LRU: the profile predicts %d misses, the simulation counts %d", words, predicted, want)
					}
				}
			})
		}
	}
}

// TestSmallWindowMatchesNaiveLRU runs the window with caps of 1 to 12 on
// short traces of up to 40 distinct addresses, so that eviction, far
// accesses and repeated compaction all happen, and compares every profile
// with the naive LRU's under the same cap.
func TestSmallWindowMatchesNaiveLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var evictions, compactions int
	for i := 0; i < 400; i++ {
		tracked := 1 + rng.Intn(12)
		n := rng.Intn(400)
		flat := make([]int32, n)
		span := int32(1 + rng.Intn(40))
		for j := range flat {
			flat[j] = rng.Int31n(span)
			if i%2 == 1 {
				flat[j] *= 7919 // spread over a large extent
			}
		}
		w := newWindow(context.Background(), tracked, extentOf(flat))
		for _, c := range splitAt(flat, randomCuts(rng, n, rng.Intn(5))) {
			w.feed(c)
		}
		evictions += int(w.p.far)
		if n > len(w.addr) {
			compactions++
		}
		got := w.finish(nil)
		if want := naiveProfile(flat, tracked); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: cap %d, trace %v: window %+v, naive LRU %+v", i, tracked, flat, got, want)
		}
	}
	if evictions == 0 || compactions == 0 {
		t.Fatalf("%d far accesses and %d compacting traces; want both", evictions, compactions)
	}
}
