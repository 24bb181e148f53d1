package reuse

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/btpc"
	"repro/internal/img"
	"repro/internal/trace"
)

// splitAt cuts flat into chunks at the given ascending cut positions.
// Repeated cuts produce empty chunks; cuts at 0 and len(flat) produce empty
// leading and trailing chunks.
func splitAt(flat []int32, cuts []int) [][]int32 {
	var out [][]int32
	prev := 0
	for _, c := range cuts {
		out = append(out, flat[prev:c])
		prev = c
	}
	return append(out, flat[prev:])
}

// randomCuts returns k ascending cut positions in [0, n], biased towards
// the shapes that stress chunk boundaries: cuts one apart (length-1
// chunks), repeated cuts (empty chunks) and cuts within a few positions of
// a multiple of analyzeCheckInterval (chunks straddling a poll point).
func randomCuts(rng *rand.Rand, n, k int) []int {
	cuts := make([]int, 0, k)
	for len(cuts) < k {
		var c int
		switch rng.Intn(4) {
		case 0:
			c = rng.Intn(n + 1)
		case 1: // next to the previous cut: length-1 or empty chunk
			c = rng.Intn(n + 1)
			if len(cuts) > 0 {
				c = cuts[len(cuts)-1] + rng.Intn(2)
			}
		case 2: // straddling a poll point
			c = (1+rng.Intn(3))*analyzeCheckInterval + rng.Intn(7) - 3
		case 3:
			c = 0
		}
		cuts = append(cuts, min(max(c, 0), n))
	}
	sort.Ints(cuts)
	return cuts
}

// randomTrace draws a trace of n addresses mixing short- and long-distance
// reuse; sparse traces exercise the map last-seen table.
func randomTrace(rng *rand.Rand, n int, sparse bool) []int32 {
	flat := make([]int32, n)
	span := int32(1 + rng.Intn(4096))
	for i := range flat {
		switch {
		case i > 0 && rng.Intn(3) == 0:
			flat[i] = flat[rng.Intn(i)] // reuse at a random distance
		default:
			flat[i] = rng.Int31n(span)
		}
		if sparse {
			flat[i] *= 1_000_003
		}
	}
	return flat
}

// TestChunkedMatchesFlat: the reuse profile of a trace split into chunks
// at arbitrary boundaries (empty chunks, length-1 chunks, chunks straddling
// the cancellation poll stride) equals the profile of the flat trace.
func TestChunkedMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		n := rng.Intn(200)
		if i%10 == 0 {
			n = analyzeCheckInterval*(1+i%3) + rng.Intn(2000) // long: crosses poll points
		}
		flat := randomTrace(rng, n, i%4 == 3)
		chunks := splitAt(flat, randomCuts(rng, n, rng.Intn(12)))
		got := AnalyzeContext(context.Background(), chunks, nil)
		if want := AnalyzeContext(context.Background(), [][]int32{flat}, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: %d addresses in %d chunks: chunked profile %+v, flat %+v",
				i, n, len(chunks), got, want)
		}
	}
}

// TestChunkedDeadContextIsPrefix: under an expired context the chunked
// analysis stops at the first poll point and returns exactly the profile of
// the processed prefix.
func TestChunkedDeadContextIsPrefix(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(2))
	for i, n := range []int{0, 1, 500, analyzeCheckInterval, analyzeCheckInterval + 1, 2*analyzeCheckInterval + 77} {
		flat := randomTrace(rng, n, false)
		chunks := splitAt(flat, randomCuts(rng, n, 6))
		got := AnalyzeContext(ctx, chunks, nil)
		done := min(n, analyzeCheckInterval)
		if got.Total() != uint64(done) {
			t.Fatalf("case %d: dead-context total %d, want %d", i, got.Total(), done)
		}
		if want := AnalyzeContext(context.Background(), [][]int32{flat[:done]}, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: dead-context profile %+v, want the %d-address prefix's %+v", i, got, done, want)
		}
	}
}

// encodeTrace captures the image read trace of one 256² BTPC encode.
func encodeTrace(tb testing.TB, seed uint64, quant int) *trace.Recorder {
	tb.Helper()
	rec := trace.NewRecorder()
	rec.EnableAddressTrace("image")
	if _, _, err := btpc.Encode(img.Synthetic(256, 256, seed), btpc.Params{Quant: quant}, rec); err != nil {
		tb.Fatal(err)
	}
	return rec
}

// TestEncodeTraceChunkedMatchesFlat: for the traces the methodology
// analyzes (images 1-4 at quantizers 1, 4, 7 and 10, 256²), the profile of
// the recorder's chunks equals the profile of the flat copy.
func TestEncodeTraceChunkedMatchesFlat(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		for _, quant := range []int{1, 4, 7, 10} {
			t.Run(fmt.Sprintf("image%d/q%d", seed, quant), func(t *testing.T) {
				rec := encodeTrace(t, seed, quant)
				chunks := rec.AddressChunks("image")
				if len(chunks) < 2 {
					t.Fatalf("trace is %d chunk(s); want several", len(chunks))
				}
				got := AnalyzeContext(context.Background(), chunks, nil)
				if want := AnalyzeContext(context.Background(), [][]int32{rec.Addresses("image")}, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("chunked profile (total %d, cold %d) differs from flat (total %d, cold %d)",
						got.Total(), got.Cold(), want.Total(), want.Cold())
				}
			})
		}
	}
}

var benchProfile *Profile

// BenchmarkAnalyzeEncode256 times the stack-distance analysis of the 256²
// encode's image trace, read from the recorder's chunks.
func BenchmarkAnalyzeEncode256(b *testing.B) {
	chunks := encodeTrace(b, 1, 1).AddressChunks("image")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchProfile = AnalyzeContext(context.Background(), chunks, nil)
	}
}
