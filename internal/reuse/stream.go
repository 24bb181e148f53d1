package reuse

import (
	"context"
	"fmt"

	"repro/internal/obs"
)

// streamDepth is the number of full chunks the recorder may hand over ahead
// of the analysis before it waits for it. The analysis keeps pace with the
// encoder on average, so a few chunks (64 KiB each) absorb the bursts of
// either side while the trace in flight stays small.
const streamDepth = 4

// Stream analyzes a read-address trace chunk by chunk while it is being
// recorded, on a goroutine of its own (not a pool item, so a one-worker
// pool cannot deadlock it). It is a trace.AddressSink: the recorder hands
// it each full chunk over a bounded queue and takes consumed chunks back
// from a free list, so the trace is never held whole.
//
// When ctx expires mid-trace, the goroutine keeps draining the queue, so
// the recorder never blocks on it, and the profile is that of the prefix
// processed so far (Total reports the truncated length, so miss ratios
// stay consistent). Stack distances are a property of the trace prefix, so
// a truncated profile is a valid — just lower-confidence — reuse estimate.
//
// Under a non-nil parent the analysis runs in a "reuse.analyze" span
// recording the trace length and the cold and far counts; a nil parent
// records nothing.
type Stream struct {
	depth int           // the largest distance tracked exactly
	words int           // extent of the traced array; set before the first chunk
	queue chan []int32  // full chunks, in trace order
	free  chan []int32  // consumed chunks for the recorder to refill
	done  chan struct{} // closed once prof is set
	prof  *Profile
}

// NewStream starts the analysis goroutine, which exits once the stream is
// closed (trace.Recorder.CloseAddressTrace closes it) and its queue drained.
// depth is the largest buffer size, in words, the consumer will pass to the
// profile's MissRatio; it must be positive.
func NewStream(ctx context.Context, parent *obs.Span, depth int) *Stream {
	if depth < 1 {
		panic(fmt.Sprintf("reuse: stream depth %d is not positive", depth))
	}
	s := &Stream{
		depth: depth,
		queue: make(chan []int32, streamDepth),
		// Room for every chunk the queue and the analysis can hold, so no
		// consumed chunk is dropped.
		free: make(chan []int32, streamDepth+1),
		done: make(chan struct{}),
	}
	go s.run(ctx, parent)
	return s
}

// Extent records the size in words of the traced array, which bounds its
// addresses to [0, words). A Stream takes the trace of one array: Extent
// is called once, before the first chunk.
func (s *Stream) Extent(words int) { s.words = words }

// Chunk queues c for the analysis, waiting while the queue is full, and
// returns a consumed chunk to refill, or nil when none is free.
func (s *Stream) Chunk(c []int32) []int32 {
	s.queue <- c
	select {
	case f := <-s.free:
		return f[:0]
	default:
		return nil
	}
}

// Close ends the trace: the analysis finishes the queued chunks.
func (s *Stream) Close() { close(s.queue) }

// Profile waits for the analysis to finish the closed trace and returns
// its profile.
func (s *Stream) Profile() *Profile {
	<-s.done
	return s.prof
}

func (s *Stream) run(ctx context.Context, parent *obs.Span) {
	defer close(s.done)
	sp := parent.Child("reuse.analyze")
	defer sp.End()
	// Extent precedes the first chunk, and the close of an unread trace.
	c, ok := <-s.queue
	w := newWindow(ctx, s.depth, s.words)
	for ; ok; c, ok = <-s.queue {
		w.feed(c)
		select {
		case s.free <- c:
		default:
		}
	}
	s.prof = w.finish(sp)
}
