package reuse

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/btpc"
	"repro/internal/img"
	"repro/internal/trace"
)

// tee is a Stream that also keeps a copy of the trace it is handed.
type tee struct {
	*Stream
	flat []int32
}

func (t *tee) Chunk(c []int32) []int32 {
	t.flat = append(t.flat, c...)
	return t.Stream.Chunk(c)
}

// depth256 is the depth the methodology analyzes the 256² encode at: its
// 5 × 256-word yhier layer.
const depth256 = 5 * 256

// streamEncode runs one 256² encode of image seed at quantizer quant with
// the image read trace streamed into a Stream depth words deep under ctx,
// and returns the stream's profile and a copy of the trace.
func streamEncode(t *testing.T, ctx context.Context, depth int, seed uint64, quant int) (*Profile, []int32) {
	t.Helper()
	s := &tee{Stream: NewStream(ctx, nil, depth)}
	rec := trace.NewRecorder()
	rec.StreamAddressTrace("image", s)
	_, _, err := btpc.Encode(img.Synthetic(256, 256, seed), btpc.Params{Quant: quant}, rec)
	rec.CloseAddressTrace("image")
	p := s.Profile()
	if err != nil {
		t.Fatal(err)
	}
	return p, s.flat
}

// TestStreamMatchesBatch: for images 1-4, the profile streamed beside the
// encode equals the batch run of the recorded trace. The image read trace
// does not depend on the pixel values, so all four are one trace reached
// through four different encodes; the profiles are not cached.
func TestStreamMatchesBatch(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("image%d", seed), func(t *testing.T) {
			got, flat := streamEncode(t, context.Background(), depth256, seed, 1)
			if want := batchProfile(context.Background(), depth256, flat); !reflect.DeepEqual(got, want) {
				t.Fatalf("streamed profile (total %d, cold %d, %d distances) differs from batch (total %d, cold %d, %d distances)",
					got.total, got.cold, len(got.hist), want.total, want.cold, len(want.hist))
			}
		})
	}
}

// TestStreamDeadContextIsPrefix: under a context that is dead from the
// start or expires mid-stream, the encode completes (the stream drains
// every chunk) and the streamed profile is that of a processed prefix,
// ending at a poll point, as the batch run's is.
func TestStreamDeadContextIsPrefix(t *testing.T) {
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	got, flat := streamEncode(t, dead, depth256, 1, 1)
	if got.Total() != analyzeCheckInterval {
		t.Fatalf("dead-context total %d, want %d", got.Total(), analyzeCheckInterval)
	}
	if want := batchProfile(dead, depth256, flat); !reflect.DeepEqual(got, want) {
		t.Fatalf("dead-context streamed profile differs from the batch one")
	}
	for _, d := range []time.Duration{time.Microsecond, time.Millisecond, 5 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		got, flat := streamEncode(t, ctx, depth256, 1, 1)
		cancel()
		n := got.Total()
		if n > uint64(len(flat)) || (n%analyzeCheckInterval != 0 && n != uint64(len(flat))) {
			t.Fatalf("timeout %v: processed %d of %d addresses, not a poll point", d, n, len(flat))
		}
		if want := analyzeReference(flat[:n], depth256); !reflect.DeepEqual(got, want) {
			t.Fatalf("timeout %v: profile of the %d-address prefix differs from the reference", d, n)
		}
	}
}

// TestStreamChunksMatchBatch feeds a Stream directly, with chunks of random
// lengths and a slow consumer's worth of queued chunks, and compares it with
// the batch run; the free list's chunks come back empty.
func TestStreamChunksMatchBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		n := rng.Intn(3 * trace.ChunkLen)
		depth := 1 + rng.Intn(5000)
		flat := randomTrace(rng, n, false)
		chunks := splitAt(flat, randomCuts(rng, n, rng.Intn(10)))
		got := streamProfile(t, context.Background(), depth, extentOf(flat), chunks...)
		if want := batchProfile(context.Background(), depth, flat); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: streamed %+v, batch %+v", i, got, want)
		}
	}
}
