package reuse

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
// reuse; a spread trace scatters them over an extent 97 times as large.
func randomTrace(rng *rand.Rand, n int, spread bool) []int32 {
	flat := make([]int32, n)
	span := int32(1 + rng.Intn(4096))
	for i := range flat {
		switch {
		case i > 0 && rng.Intn(3) == 0:
			flat[i] = flat[rng.Intn(i)] // reuse at a random distance
		default:
			flat[i] = rng.Int31n(span)
		}
	}
	if spread {
		for i := range flat {
			flat[i] *= 97
		}
	}
	return flat
}

// extentOf returns the smallest array extent that holds every address of
// chunks.
func extentOf(chunks ...[]int32) int {
	words := 0
	for _, c := range chunks {
		for _, a := range c {
			words = max(words, int(a)+1)
		}
	}
	return words
}

// streamProfile hands chunks to a Stream depth words deep under ctx, as the
// recorder hands over the trace of an array of words words, and returns its
// profile. It fails if a chunk the stream gives back to refill is not empty.
func streamProfile(tb testing.TB, ctx context.Context, depth, words int, chunks ...[]int32) *Profile {
	tb.Helper()
	s := NewStream(ctx, nil, depth)
	s.Extent(words)
	for _, c := range chunks {
		if f := s.Chunk(c); len(f) != 0 {
			tb.Fatalf("stream gave back a chunk of length %d to refill", len(f))
		}
	}
	s.Close()
	return s.Profile()
}

// batchProfile runs the trace formed by chunks through a window depth words
// deep on the calling goroutine, with no queue in between: the reference
// run the stream's plumbing must not change.
func batchProfile(ctx context.Context, depth int, chunks ...[]int32) *Profile {
	w := newWindow(ctx, depth, extentOf(chunks...))
	for _, c := range chunks {
		w.feed(c)
	}
	return w.finish(nil)
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
		depth := 1 + rng.Intn(5000)
		flat := randomTrace(rng, n, i%4 == 3)
		chunks := splitAt(flat, randomCuts(rng, n, rng.Intn(12)))
		got := batchProfile(context.Background(), depth, chunks...)
		if want := batchProfile(context.Background(), depth, flat); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: %d addresses in %d chunks: chunked profile %+v, flat %+v",
				i, n, len(chunks), got, want)
		}
	}
}

// TestChunkedDeadContextIsPrefix: under an expired context a stream stops
// at the first poll point and returns exactly the profile of the processed
// prefix, wherever the chunk boundaries fall.
func TestChunkedDeadContextIsPrefix(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(2))
	for i, n := range []int{0, 1, 500, analyzeCheckInterval, analyzeCheckInterval + 1, 2*analyzeCheckInterval + 77} {
		flat := randomTrace(rng, n, false)
		chunks := splitAt(flat, randomCuts(rng, n, 6))
		got := streamProfile(t, ctx, depth256, extentOf(flat), chunks...)
		done := min(n, analyzeCheckInterval)
		if got.Total() != uint64(done) {
			t.Fatalf("case %d: dead-context total %d, want %d", i, got.Total(), done)
		}
		if want := batchProfile(context.Background(), depth256, flat[:done]); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: dead-context profile %+v, want the %d-address prefix's %+v", i, got, done, want)
		}
	}
}

// collector is a trace.AddressSink that keeps every chunk it is handed.
type collector struct {
	words  int
	chunks [][]int32
}

func (c *collector) Extent(words int)         { c.words = words }
func (c *collector) Chunk(ch []int32) []int32 { c.chunks = append(c.chunks, ch); return nil }
func (c *collector) Close()                   {}

// encodeTrace captures the image read trace of one 256² BTPC encode, in
// the chunks the recorder handed over.
func encodeTrace(tb testing.TB, seed uint64, quant int) *collector {
	tb.Helper()
	col := &collector{}
	rec := trace.NewRecorder()
	rec.StreamAddressTrace("image", col)
	_, _, err := btpc.Encode(img.Synthetic(256, 256, seed), btpc.Params{Quant: quant}, rec)
	rec.CloseAddressTrace("image")
	if err != nil {
		tb.Fatal(err)
	}
	return col
}

// TestEncodeTraceChunkedMatchesFlat: for the traces the methodology
// analyzes (images 1-4 at quantizers 1, 4, 7 and 10, 256²), the profile of
// the recorder's chunks equals the profile of the flat trace.
func TestEncodeTraceChunkedMatchesFlat(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		for _, quant := range []int{1, 4, 7, 10} {
			t.Run(fmt.Sprintf("image%d/q%d", seed, quant), func(t *testing.T) {
				chunks := encodeTrace(t, seed, quant).chunks
				if len(chunks) < 2 {
					t.Fatalf("trace is %d chunk(s); want several", len(chunks))
				}
				got := batchProfile(context.Background(), depth256, chunks...)
				if want := batchProfile(context.Background(), depth256, slices.Concat(chunks...)); !reflect.DeepEqual(got, want) {
					t.Fatalf("chunked profile (total %d, cold %d) differs from flat (total %d, cold %d)",
						got.Total(), got.Cold(), want.Total(), want.Cold())
				}
			})
		}
	}
}

var benchProfile *Profile

// BenchmarkAnalyzeEncode256 times the stack-distance analysis of the 256²
// encode's image trace at the methodology's depth, handed to a Stream in
// the recorder's chunks.
func BenchmarkAnalyzeEncode256(b *testing.B) {
	col := encodeTrace(b, 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchProfile = streamProfile(b, context.Background(), depth256, col.words, col.chunks...)
	}
}
