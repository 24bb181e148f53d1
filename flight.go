package dtse

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// The flight recorder: a bounded ring of the last N requests that came back
// slow, degraded, or errored, each kept with enough context — the request's
// full span tree and the final search position — that "why was this
// request degraded" is answerable after the fact without rerunning it.
// GET /debug/flightrecorder dumps the ring, newest first.

// FlightEntry is one recorded request.
type FlightEntry struct {
	TraceID string    `json:"trace_id"`
	Start   time.Time `json:"start"`
	// Reason is why the request was recorded: "error" (non-2xx response),
	// "degraded" (completed best-effort under an expired deadline or abort),
	// or "slow" (above the configured threshold).
	Reason     string  `json:"reason"`
	Status     int     `json:"status"`
	DurationMS float64 `json:"duration_ms"`
	Mode       string  `json:"mode"`            // "spec" or "demo"
	Label      string  `json:"label,omitempty"` // spec name or demo size
	Degraded   bool    `json:"degraded"`
	// Peer is the cluster member that answered a forwarded item — the
	// first question about a bad forwarded request is "which node".
	Peer string `json:"peer,omitempty"`

	// Search is the exploration's final introspection snapshot: last stage
	// reached, branch-and-bound nodes expanded, incumbent cost and bound gap.
	Search obs.ProgressSnapshot `json:"search"`

	// Spans is the request's full span tree (serve.explore and everything
	// underneath), in end order — children before parents, as in traces.
	Spans []*obs.SpanRecord `json:"spans,omitempty"`
}

// flightRecorder is the bounded ring. Writes are rare (only degraded or
// errored requests) so a plain mutex suffices.
type flightRecorder struct {
	mu      sync.Mutex
	entries []*FlightEntry
	next    int
	total   int64
}

func newFlightRecorder(capacity int) *flightRecorder {
	return &flightRecorder{entries: make([]*FlightEntry, capacity)}
}

func (f *flightRecorder) add(e *FlightEntry) {
	f.mu.Lock()
	f.entries[f.next] = e
	f.next = (f.next + 1) % len(f.entries)
	f.total++
	f.mu.Unlock()
}

// dump returns the lifetime record count and the held entries, newest
// first.
func (f *flightRecorder) dump() (total int64, out []*FlightEntry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := 1; i <= len(f.entries); i++ {
		e := f.entries[(f.next-i+len(f.entries))%len(f.entries)]
		if e == nil {
			break
		}
		out = append(out, e)
	}
	return f.total, out
}

// counts returns the lifetime record count and how many entries are held.
// The ring fills in order and never empties, so no entry is visited.
func (f *flightRecorder) counts() (total int64, held int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total, int(min(f.total, int64(len(f.entries))))
}
