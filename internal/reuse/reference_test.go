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
// address, and a last-seen table of trace positions. Distances beyond depth
// count as far.
func analyzeReference(flat []int32, depth int) *Profile {
	n := len(flat)
	p := &Profile{hist: make([]uint64, 1), depth: depth, total: uint64(n)}
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
			if d > depth {
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

// naiveProfile is the profile of addrs, tracking distances up to depth,
// from the stack distances of the O(n²) LRU simulation.
func naiveProfile(addrs []int32, depth int) *Profile {
	p := &Profile{hist: make([]uint64, 1), depth: depth, total: uint64(len(addrs))}
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
		case d > depth:
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

// predictedMisses is the number of misses p predicts for an LRU buffer of
// capacity words: by Mattson's inclusion property, the cold accesses and
// every re-access at stack distance above capacity.
func predictedMisses(tb testing.TB, p *Profile, capacity int) uint64 {
	tb.Helper()
	if capacity > p.depth {
		tb.Fatalf("%d-word buffer is past the profile's %d-word depth", capacity, p.depth)
	}
	n := p.cold + p.far
	for d := capacity + 1; d < len(p.hist); d++ {
		n += p.hist[d]
	}
	return n
}

// TestWindowMatchesReference: the profile a Stream computes equals the
// whole-trace reference on random traces, dense or spread over a large
// extent, handed over in random chunk splits, at depths below and above
// the traces' distinct address counts.
func TestWindowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		n := rng.Intn(3000)
		if i%20 == 0 {
			n = analyzeCheckInterval + rng.Intn(5000)
		}
		depth := 1 + rng.Intn(5000)
		flat := randomTrace(rng, n, i%2 == 1)
		want := analyzeReference(flat, depth)
		chunks := splitAt(flat, randomCuts(rng, n, rng.Intn(8)))
		if got := streamProfile(t, context.Background(), depth, extentOf(flat), chunks...); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: %d addresses at depth %d: stream %+v, reference %+v", i, n, depth, got, want)
		}
	}
}

// TestEncodeTraceMatchesReference: for the 16 image × quantizer traces the
// methodology analyzes at 256², the profile streamed beside the encode at
// the methodology's depth (the 1 280-word yhier layer) equals the
// reference, and it predicts the misses of a simulated LRU buffer exactly
// at the 12-word ylocal layer and at the depth itself. A second stream of
// the same trace, 4 096 words deep, predicts a 4 096-word buffer's misses.
func TestEncodeTraceMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		for _, quant := range []int{1, 4, 7, 10} {
			t.Run(fmt.Sprintf("image%d/q%d", seed, quant), func(t *testing.T) {
				got, flat := streamEncode(t, context.Background(), depth256, seed, quant)
				if want := analyzeReference(flat, depth256); !reflect.DeepEqual(got, want) {
					t.Fatalf("streamed profile (total %d, cold %d, far %d, %d distances) differs from the reference (total %d, cold %d, far %d, %d distances)",
						got.total, got.cold, got.far, len(got.hist), want.total, want.cold, want.far, len(want.hist))
				}
				deep := streamProfile(t, context.Background(), 4096, 256*256, flat)
				for _, c := range []struct {
					p     *Profile
					words int
				}{{got, 12}, {got, depth256}, {deep, 4096}} {
					if predicted, want := predictedMisses(t, c.p, c.words), lruMisses(flat, c.words); predicted != want {
						t.Fatalf("%d-word LRU: the profile predicts %d misses, the simulation counts %d", c.words, predicted, want)
					}
				}
			})
		}
	}
}

// TestDeepReuseMatchesLRU: two passes over 150 000 distinct addresses reuse
// every address at stack distance 150 000, between 2^17 and 2^18. A stream
// 2^18 words deep predicts the misses of simulated LRU buffers on both
// sides of that distance, and its profile equals the reference.
func TestDeepReuseMatchesLRU(t *testing.T) {
	const k, depth = 150_000, 1 << 18
	flat := make([]int32, 2*k)
	for i := range flat {
		flat[i] = int32(i % k)
	}
	p := streamProfile(t, context.Background(), depth, k, flat)
	if want := analyzeReference(flat, depth); !reflect.DeepEqual(p, want) {
		t.Fatalf("streamed profile (cold %d, far %d) differs from the reference (cold %d, far %d)", p.cold, p.far, want.cold, want.far)
	}
	for _, words := range []int{140_000, k - 1, k, 200_000} {
		if predicted, want := predictedMisses(t, p, words), lruMisses(flat, words); predicted != want {
			t.Fatalf("%d-word LRU: the profile predicts %d misses, the simulation counts %d", words, predicted, want)
		}
	}
	if m, err := p.MissRatio(k); err != nil || m != 0.5 {
		t.Fatalf("MissRatio(%d) = %v, %v; want 0.5 (the cold first pass)", k, m, err)
	}
}

// TestSmallWindowMatchesNaiveLRU runs the window at depths of 1 to 12 on
// short traces of up to 40 distinct addresses, so that eviction, far
// accesses and repeated compaction all happen, and compares every profile
// with the naive LRU's at the same depth.
func TestSmallWindowMatchesNaiveLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var evictions, compactions int
	for i := 0; i < 400; i++ {
		depth := 1 + rng.Intn(12)
		n := rng.Intn(400)
		flat := make([]int32, n)
		span := int32(1 + rng.Intn(40))
		for j := range flat {
			flat[j] = rng.Int31n(span)
			if i%2 == 1 {
				flat[j] *= 7919 // spread over a large extent
			}
		}
		w := newWindow(context.Background(), depth, extentOf(flat))
		for _, c := range splitAt(flat, randomCuts(rng, n, rng.Intn(5))) {
			w.feed(c)
		}
		evictions += int(w.p.far)
		if n > len(w.addr) {
			compactions++
		}
		got := w.finish(nil)
		if want := naiveProfile(flat, depth); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: depth %d, trace %v: window %+v, naive LRU %+v", i, depth, flat, got, want)
		}
	}
	if evictions == 0 || compactions == 0 {
		t.Fatalf("%d far accesses and %d compacting traces; want both", evictions, compactions)
	}
}
