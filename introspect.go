package dtse

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Live exploration introspection: every admitted /v1/explore request is
// registered with a Progress the pipeline publishes into, readable while
// the request runs at GET /debug/explorations and streamed per-request
// over SSE. The registry is keyed by trace id, so a slow request spotted
// in the registry can be found again in traces and the flight recorder.

// liveEntry is one in-flight exploration.
type liveEntry struct {
	tid   string
	mode  string
	label string
	start time.Time
	prog  *obs.Progress
}

// registerLive adds the request to the in-flight registry and returns its
// Progress.
func (s *Server) registerLive(tid string, p *parsedRequest) *obs.Progress {
	prog := &obs.Progress{}
	prog.SetStage("admitted")
	s.liveMu.Lock()
	s.live[tid] = &liveEntry{tid: tid, mode: p.mode, label: p.label, start: time.Now(), prog: prog}
	s.liveMu.Unlock()
	return prog
}

func (s *Server) unregisterLive(tid string) {
	s.liveMu.Lock()
	delete(s.live, tid)
	s.liveMu.Unlock()
}

// openExplorations returns the registry size.
func (s *Server) openExplorations() int {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	return len(s.live)
}

// liveWire is the JSON shape of one in-flight exploration, shared by
// /debug/explorations and the SSE progress events.
type liveWire struct {
	TraceID     string  `json:"trace_id"`
	Mode        string  `json:"mode"`
	Label       string  `json:"label,omitempty"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	NodesPerSec float64 `json:"nodes_per_sec"`
	obs.ProgressSnapshot
}

func (e *liveEntry) wire() liveWire {
	elapsed := time.Since(e.start)
	w := liveWire{
		TraceID:          e.tid,
		Mode:             e.mode,
		Label:            e.label,
		ElapsedMS:        float64(elapsed.Microseconds()) / 1e3,
		ProgressSnapshot: e.prog.Snapshot(),
	}
	if sec := elapsed.Seconds(); sec > 0 {
		w.NodesPerSec = float64(w.Nodes) / sec
	}
	return w
}

// handleExplorations serves the in-flight registry, oldest request first.
func (s *Server) handleExplorations(w http.ResponseWriter, r *http.Request) {
	s.liveMu.Lock()
	entries := make([]*liveEntry, 0, len(s.live))
	for _, e := range s.live {
		entries = append(entries, e)
	}
	s.liveMu.Unlock()
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].start.Equal(entries[j].start) {
			return entries[i].start.Before(entries[j].start)
		}
		return entries[i].tid < entries[j].tid
	})
	out := struct {
		Count        int        `json:"count"`
		Explorations []liveWire `json:"explorations"`
	}{Count: len(entries), Explorations: make([]liveWire, len(entries))}
	for i, e := range entries {
		out.Explorations[i] = e.wire()
	}
	writeJSON(w, out)
}

// handleFlightRecorder dumps the flight-recorder ring, newest entry first.
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		http.Error(w, "flight recorder disabled", http.StatusNotFound)
		return
	}
	total, entries := s.flight.dump()
	writeJSON(w, struct {
		Capacity int            `json:"capacity"`
		Recorded int64          `json:"recorded_total"`
		Entries  []*FlightEntry `json:"entries"`
	}{Capacity: len(s.flight.entries), Recorded: total, Entries: entries})
}

func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

// --- SSE progress streaming ---

// sseProgressInterval paces the progress events of one streamed request.
const sseProgressInterval = 150 * time.Millisecond

// wantsSSE reports whether the client asked for a progress stream.
func wantsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// serveSSE streams one exploration: periodic "progress" events with the
// live introspection snapshot, then one "result" (or "error") event whose
// data is the exact response body a plain POST would have returned. Client
// disconnect cancels the exploration through ctx — it degrades to its
// anytime result (never cached), the stream just has no one left to read
// it.
func (s *Server) serveSSE(ctx context.Context, w http.ResponseWriter, it *exploreItem, prog *obs.Progress) {
	tid := it.tid
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusNotImplemented, "response writer does not support streaming")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)

	done := make(chan *servedResponse, 1)
	go func() { done <- s.runExploration(ctx, it, prog) }()

	emit := func(event string, data []byte) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
	}
	progressData := func() []byte {
		s.liveMu.Lock()
		e := s.live[tid]
		s.liveMu.Unlock()
		if e == nil {
			return []byte("{}")
		}
		b, err := json.Marshal(e.wire())
		if err != nil {
			return []byte("{}")
		}
		return b
	}

	emit("progress", progressData())
	ticker := time.NewTicker(sseProgressInterval)
	defer ticker.Stop()
	for {
		select {
		case resp := <-done:
			event := "result"
			if resp.status != http.StatusOK {
				event = "error"
			}
			emit(event, bytes.TrimRight(resp.body, "\n"))
			// The responses-by-class accounting counts the exploration's
			// outcome; the HTTP status of the stream itself is always 200.
			s.countStatus(resp.status)
			return
		case <-ticker.C:
			emit("progress", progressData())
		}
	}
}

// --- Prometheus exposition ---

// handleMetricsProm serves the metrics snapshot as the Prometheus text
// exposition. The snapshot is read before the first byte is written, so a
// write error can only be the client going away.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	m := s.metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m.writeProm(w)
}

// writeProm renders the snapshot, and nothing else, as the Prometheus text
// exposition: the server's HTTP-level families, the request-latency
// histogram, the per-keyspace memo stats, the disk tier, the pool, the Go
// runtime, and the observer snapshot (counters, gauges, explicit
// histograms, per-stage duration histograms). Metric names are a stable
// contract pinned by the exposition tests.
func (m *metricsResponse) writeProm(w io.Writer) {
	p := obs.NewProm(w, "dtse")
	sv := &m.Server
	p.Counter("http.requests", sv.Requests)
	for i, n := range []int64{sv.OK, sv.Redirects, sv.ClientErrors, sv.ServerErrors} {
		p.Counter(obs.Label("http.responses", "class", fmt.Sprintf("%dxx", i+2)), n)
	}
	p.Gauge("http.inflight", sv.Inflight)
	p.Gauge("http.queued", sv.Queued)
	draining := int64(0)
	if sv.Draining {
		draining = 1
	}
	p.Gauge("http.draining", draining)
	p.Gauge("explorations.open", int64(sv.Open))
	if sv.Recorded != nil {
		p.Counter("flightrecorder.recorded", *sv.Recorded)
		p.Gauge("flightrecorder.entries", int64(sv.Flights))
	}
	if c := m.Cluster; c != nil {
		p.Gauge("cluster.peers", int64(c.Peers))
		p.Gauge("cluster.peers_alive", int64(c.PeersAlive))
		p.Gauge("cluster.members", int64(c.Members))
	}
	p.HistogramSeries("request_duration", "", sv.LatencyHist)

	if m.Memo != nil {
		// One family at a time: exposition requires a family's samples to be
		// consecutive, so the loops go metric-major, space-minor.
		spaces := make([]string, 0, len(m.Memo))
		for sp := range m.Memo {
			spaces = append(spaces, sp)
		}
		sort.Strings(spaces)
		for _, sp := range spaces {
			p.Counter(obs.Label("memo.hits", "space", sp), m.Memo[sp].Hits)
		}
		for _, sp := range spaces {
			p.Counter(obs.Label("memo.misses", "space", sp), m.Memo[sp].Misses)
		}
		for _, sp := range spaces {
			p.Counter(obs.Label("memo.inflight_waits", "space", sp), m.Memo[sp].InflightWaits)
		}
		for _, sp := range spaces {
			p.Gauge(obs.Label("memo.entries", "space", sp), int64(m.Memo[sp].Entries))
		}
		for _, sp := range spaces {
			p.Counter(obs.Label("memo.evictions", "space", sp), m.Memo[sp].Evictions)
		}
		for _, sp := range spaces {
			p.Gauge(obs.Label("memo.bytes_held", "space", sp), m.Memo[sp].BytesHeld)
		}
		for _, sp := range spaces {
			p.Counter(obs.Label("memo.disk_hits", "space", sp), m.Memo[sp].DiskHits)
		}
		for _, sp := range spaces {
			p.Counter(obs.Label("memo.disk_writes", "space", sp), m.Memo[sp].DiskWrites)
		}
	}
	if ds := m.Disk; ds != nil {
		p.Gauge("diskcache.records", int64(ds.Records))
		p.Counter("diskcache.replayed", ds.Replayed)
		p.Counter("diskcache.truncated_bytes", ds.Truncated)
		p.Counter("diskcache.hits", ds.Hits)
		p.Counter("diskcache.misses", ds.Misses)
		p.Counter("diskcache.writes", ds.Writes)
		p.Counter("diskcache.dropped", ds.Dropped)
		p.Counter("diskcache.read_errors", ds.ReadErrs)
	}
	p.Gauge("pool.workers", int64(m.Pool.Workers))
	p.Gauge("pool.spawns", m.Pool.Spawns)
	p.Gauge("pool.inline_runs", m.Pool.InlineRuns)

	// Go runtime families (dtse_go_*): allocation counters to pair with the
	// request counters (allocs per request without a profiler attached) and
	// the GC pressure gauges.
	rt := m.Runtime
	p.Gauge("go.heap_alloc_bytes", int64(rt.HeapAllocBytes))
	p.Gauge("go.heap_sys_bytes", int64(rt.HeapSysBytes))
	p.Counter("go.alloc_bytes", int64(rt.TotalAllocBytes))
	p.Counter("go.mallocs", int64(rt.Mallocs))
	p.Counter("go.gc_cycles", int64(rt.GCCycles))
	p.GaugeF("go.gc_last_pause_seconds", float64(rt.LastPauseNS)/1e9)
	p.GaugeF("go.gc_pause_total_seconds", float64(rt.PauseTotalNS)/1e9)
	p.Gauge("go.goroutines", int64(rt.Goroutines))

	p.WriteSnapshot(m.Obs)
}
