package dtse

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/memo"
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
func (s *Server) serveSSE(ctx context.Context, w http.ResponseWriter, p *parsedRequest, tid string, prog *obs.Progress) {
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
	go func() { done <- s.runExploration(ctx, p, tid, prog) }()

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

// handleMetricsProm writes the Prometheus text exposition: the server's
// HTTP-level families, the request-latency histogram, the authoritative
// per-keyspace memo stats, and everything the observer holds (counters,
// gauges, explicit histograms, per-stage duration histograms). Metric names
// are a stable contract pinned by the exposition tests.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	var b bytes.Buffer
	p := obs.NewProm(&b, "dtse")

	p.Counter("http.requests", s.requests.Load())
	for c := 2; c <= 5; c++ {
		p.Counter(obs.Label("http.responses", "class", fmt.Sprintf("%dxx", c)), s.responses[c].Load())
	}
	p.Gauge("http.inflight", s.inflight.Load())
	p.Gauge("http.queued", s.queued.Load())
	draining := int64(0)
	if s.draining.Load() {
		draining = 1
	}
	p.Gauge("http.draining", draining)
	p.Gauge("explorations.open", int64(s.openExplorations()))
	if s.flight != nil {
		total, _ := s.flight.dump()
		p.Counter("flightrecorder.recorded", total)
		p.Gauge("flightrecorder.entries", int64(s.flight.size()))
	}
	if cs := s.cluster; cs != nil {
		p.Gauge("cluster.peers", int64(len(cs.router.Peers())))
		p.Gauge("cluster.peers_alive", int64(len(cs.router.AlivePeers())))
		p.Gauge("cluster.members", int64(len(cs.router.Members())))
	}
	p.HistogramSeries("request_duration", "", s.reqHist.Snapshot())

	if s.memo != nil {
		spaces := memo.Spaces
		var stats [len(spaces)]memo.Stats
		for i, sp := range spaces {
			stats[i] = s.memo.Stats(sp)
		}
		// One family at a time: exposition requires a family's samples to be
		// consecutive, so the loops go metric-major, space-minor.
		for i, sp := range spaces {
			p.Counter(obs.Label("memo.hits", "space", sp.String()), stats[i].Hits)
		}
		for i, sp := range spaces {
			p.Counter(obs.Label("memo.misses", "space", sp.String()), stats[i].Misses)
		}
		for i, sp := range spaces {
			p.Counter(obs.Label("memo.inflight_waits", "space", sp.String()), stats[i].InflightWaits)
		}
		for i, sp := range spaces {
			p.Gauge(obs.Label("memo.entries", "space", sp.String()), int64(stats[i].Entries))
		}
		for i, sp := range spaces {
			p.Counter(obs.Label("memo.evictions", "space", sp.String()), stats[i].Evictions)
		}
		for i, sp := range spaces {
			p.Gauge(obs.Label("memo.bytes_held", "space", sp.String()), stats[i].BytesHeld)
		}
		for i, sp := range spaces {
			p.Counter(obs.Label("memo.disk_hits", "space", sp.String()), stats[i].DiskHits)
		}
		for i, sp := range spaces {
			p.Counter(obs.Label("memo.disk_writes", "space", sp.String()), stats[i].DiskWrites)
		}
	}
	if d := s.opts.Disk; d != nil {
		ds := d.Stats()
		p.Gauge("diskcache.records", int64(ds.Records))
		p.Counter("diskcache.replayed", ds.Replayed)
		p.Counter("diskcache.truncated_bytes", ds.Truncated)
		p.Counter("diskcache.hits", ds.Hits)
		p.Counter("diskcache.misses", ds.Misses)
		p.Counter("diskcache.writes", ds.Writes)
		p.Counter("diskcache.dropped", ds.Dropped)
		p.Counter("diskcache.read_errors", ds.ReadErrs)
	}

	// Go runtime families (dtse_go_*): allocation counters to pair with the
	// request counters (allocs per request without a profiler attached) and
	// the GC pressure gauges. Read at scrape time, so values are current.
	rt := obs.ReadRuntime()
	p.Gauge("go.heap_alloc_bytes", int64(rt.HeapAllocBytes))
	p.Gauge("go.heap_sys_bytes", int64(rt.HeapSysBytes))
	p.Counter("go.alloc_bytes", int64(rt.TotalAllocBytes))
	p.Counter("go.mallocs", int64(rt.Mallocs))
	p.Counter("go.gc_cycles", int64(rt.GCCycles))
	p.GaugeF("go.gc_last_pause_seconds", float64(rt.LastPauseNS)/1e9)
	p.GaugeF("go.gc_pause_total_seconds", float64(rt.PauseTotalNS)/1e9)
	p.Gauge("go.goroutines", int64(rt.Goroutines))

	// The observer's memo.* gauges (published by demo runs) duplicate the
	// authoritative live stats above, so they are skipped here; everything
	// else passes through.
	p.WriteObserver(s.obs, func(name string) bool { return strings.HasPrefix(name, "memo.") })

	if err := p.Err(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b.Bytes())
}
