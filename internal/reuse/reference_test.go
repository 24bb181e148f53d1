package reuse

import (
	"context"
	"fmt"
	"math"
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

// TestWindowMatchesReference: the window's profile equals the whole-trace
// reference on random dense traces, sparse traces and traces of negative
// and full-int32-range addresses, the last two through the map last-seen
// table, and for random chunk splits of each.
func TestWindowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var dense, sparse int
	for i := 0; i < 200; i++ {
		n := rng.Intn(3000)
		if i%20 == 0 {
			n = analyzeCheckInterval + rng.Intn(5000)
		}
		flat := randomTrace(rng, n, false)
		switch i % 4 {
		case 1: // sparse
			for j := range flat {
				flat[j] *= 1_000_003
			}
		case 2: // negative, at the bottom of the int32 range
			for j := range flat {
				flat[j] = math.MinInt32 + flat[j]%64
			}
		case 3: // the whole int32 range
			for j := range flat {
				flat[j] = []int32{math.MinInt32, -1, 0, 1, math.MaxInt32, 7}[flat[j]%6] + flat[j]%3
			}
		}
		if n > 0 {
			if newLastSeen(flat).byMap == nil {
				dense++
			} else {
				sparse++
			}
		}
		want := analyzeReference([][]int32{flat})
		chunks := splitAt(flat, randomCuts(rng, n, rng.Intn(8)))
		if got := AnalyzeContext(context.Background(), chunks, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: %d addresses: window %+v, reference %+v", i, n, got, want)
		}
	}
	if dense == 0 || sparse == 0 {
		t.Fatalf("last-seen table paths: %d dense, %d map; want both exercised", dense, sparse)
	}
}

// TestEncodeTraceMatchesReference: for the 16 image × quantizer traces the
// methodology analyzes at 256², the window's profile equals the reference.
func TestEncodeTraceMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		for _, quant := range []int{1, 4, 7, 10} {
			t.Run(fmt.Sprintf("image%d/q%d", seed, quant), func(t *testing.T) {
				chunks := encodeTrace(t, seed, quant).AddressChunks("image")
				got := AnalyzeContext(context.Background(), chunks, nil)
				if want := analyzeReference(chunks); !reflect.DeepEqual(got, want) {
					t.Fatalf("window profile (total %d, cold %d, far %d, %d distances) differs from the reference (total %d, cold %d, far %d, %d distances)",
						got.total, got.cold, got.far, len(got.hist), want.total, want.cold, want.far, len(want.hist))
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
				flat[j] = flat[j]*7919 - 1<<30 // sparse: the map table
			}
		}
		chunks := splitAt(flat, randomCuts(rng, n, rng.Intn(5)))
		w := analyze(context.Background(), chunks, tracked)
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
