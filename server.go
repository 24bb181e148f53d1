package dtse

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/spec"
)

// Serving: exploration as a long-running service. A Server owns one
// exploration session — a shared cross-variant evaluation cache, a shared
// bounded worker pool, and a shared telemetry observer — and answers
// POST /v1/explore requests against it, so repeated and concurrent
// explorations of the same design points are paid for once.
//
// Endpoints:
//
//	POST /v1/explore            run the physical memory management stage on
//	                            a spec (or the full BTPC methodology in demo
//	                            mode); with Accept: text/event-stream the
//	                            response is an SSE stream of progress events
//	                            ending in the result (GET with ?request=
//	                            works too, for EventSource clients)
//	POST /v1/explore/batch      N explore requests under one admission slot,
//	                            sharing the session cache and worker pool;
//	                            per-item status/degraded/trace-id results
//	GET  /healthz               liveness ("ok", or 503 while draining)
//	GET  /metrics               Prometheus text exposition (or the JSON
//	                            snapshot when Accept prefers application/json)
//	GET  /metrics.json          JSON snapshot of counters, gauges, histogram
//	                            summaries, and latencies
//	GET  /debug/explorations    in-flight request registry: stage, elapsed,
//	                            search nodes, incumbent cost, bound gap
//	GET  /debug/flightrecorder  last N slow/degraded/errored requests with
//	                            their span trees and counter deltas
//
// Every response carries an X-Trace-Id header naming the request's root
// span in the telemetry stream. Response bodies are deterministic functions
// of the request body alone, so identical requests are deduplicated through
// the session cache: concurrent duplicates singleflight one exploration,
// later duplicates are answered from memory. A response computed under an
// expired deadline (degraded, best-effort) is never cached.

// ServeOptions configures a Server. The zero value is usable: GOMAXPROCS
// concurrent explorations, a queue twice that deep, no default deadline.
type ServeOptions struct {
	// MaxConcurrent bounds the explorations running at once; further
	// requests queue. <= 0 means GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds the requests waiting for an exploration slot; beyond
	// it the server answers 429 with a Retry-After hint. <= 0 means
	// 2 x MaxConcurrent.
	MaxQueue int
	// DefaultTimeout is the per-request exploration deadline applied when
	// the request does not set timeout_ms. 0 means no default deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied deadlines (and, when set, also the
	// no-deadline case). 0 means no cap.
	MaxTimeout time.Duration
	// Workers is the width of the session's shared worker pool. <= 0 means
	// GOMAXPROCS. Results are identical at any width.
	Workers int
	// Obs is the telemetry session shared by all requests; nil disables
	// instrumentation (the /metrics endpoint then reports only server
	// gauges).
	Obs *obs.Observer
	// NoCache disables the session cache: every request recomputes.
	// Responses are byte-identical either way.
	NoCache bool
	// CacheBytes caps each session-cache keyspace at this many bytes;
	// entries beyond it are evicted CLOCK-wise. <= 0 leaves the cache
	// unbounded (the pre-bound behaviour).
	CacheBytes int64
	// Disk is an optional disk-backed second cache tier (memo.OpenDiskTier):
	// completed request responses are persisted write-behind and survive
	// restarts, answered as disk-tier hits by a fresh process. The caller
	// owns the tier and must Close it after shutdown. Ignored with NoCache.
	Disk *memo.DiskTier
	// NoWarmStart is ignored: the server never seeds a search from cached
	// neighbours.
	//
	// Deprecated: warm starts were removed; the field is kept so existing
	// callers still compile.
	NoWarmStart bool
	// FlightRecorder bounds the flight-recorder ring: the last N slow,
	// degraded, or errored requests kept with their span trees and counter
	// deltas for /debug/flightrecorder. 0 means 64; negative disables the
	// recorder.
	FlightRecorder int
	// SlowRequest records completed requests at least this slow in the
	// flight recorder even when they were neither degraded nor errored.
	// 0 disables the slow criterion.
	SlowRequest time.Duration
}

// Server is a shared exploration session behind an HTTP API. Create with
// NewServer, mount Handler on an http.Server, and use BeginDrain/Abort for
// graceful shutdown (see cmd/dtsed for the full wiring).
type Server struct {
	opts    ServeOptions
	obs     *obs.Observer
	memo    *memo.Cache
	workers *pool.Pool
	mux     *http.ServeMux
	cluster *clusterState // nil outside cluster mode (see cluster_server.go)

	// baseCtx parents every request context; Abort cancels it, degrading
	// all in-flight explorations to their anytime best-effort results.
	baseCtx context.Context
	abort   context.CancelFunc

	sem      chan struct{} // exploration slots (MaxConcurrent)
	queued   atomic.Int64
	inflight atomic.Int64
	draining atomic.Bool

	requests  atomic.Int64
	responses [6]atomic.Int64 // by status class 0xx..5xx
	nextTrace atomic.Uint64
	runID     string

	lat latencyRing
	// reqHist is the request-latency histogram behind
	// dtse_request_duration_seconds. Owned by the server (not the observer)
	// so /metrics has latency data even with Obs == nil.
	reqHist *obs.Histogram

	flight *flightRecorder // nil when disabled

	liveMu sync.Mutex
	live   map[string]*liveEntry // in-flight explorations by trace id

	// holdExplore is a test seam: when set, every exploration calls it with
	// its context before computing, so a test can hold one until its
	// client is gone.
	holdExplore func(ctx context.Context)
}

// NewServer builds a Server with its session state. The caller owns opts.Obs
// and its sinks (flush/close them after shutdown).
func NewServer(opts ServeOptions) *Server {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 2 * opts.MaxConcurrent
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:    opts,
		obs:     opts.Obs,
		workers: pool.New(opts.Workers),
		baseCtx: ctx,
		abort:   cancel,
		sem:     make(chan struct{}, opts.MaxConcurrent),
		runID:   fmt.Sprintf("%x", time.Now().UnixNano()),
		reqHist: obs.NewHistogram(),
		live:    make(map[string]*liveEntry),
	}
	if !opts.NoCache {
		s.memo = memo.New()
		if opts.CacheBytes > 0 {
			for sp := memo.Space(0); sp <= memo.Requests; sp++ {
				s.memo.Bound(sp, opts.CacheBytes)
			}
		}
		if opts.Disk != nil {
			s.memo.AttachDisk(memo.Requests, opts.Disk, encodeServed, decodeServed)
		}
	}
	// Opt-in duration histograms: wired here, at construction, before any
	// concurrent use. Library callers that build their own cache/pool stay
	// on the zero-cost path.
	s.memo.Observe(s.obs)
	s.workers.Observe(s.obs)
	if opts.FlightRecorder >= 0 {
		n := opts.FlightRecorder
		if n == 0 {
			n = 64
		}
		s.flight = newFlightRecorder(n)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/explore", s.handleExplore)
	s.mux.HandleFunc("/v1/explore/batch", s.handleExploreBatch)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	s.mux.HandleFunc("/debug/explorations", s.handleExplorations)
	s.mux.HandleFunc("/debug/flightrecorder", s.handleFlightRecorder)
	// Cluster-internal endpoints; 404 until JoinCluster.
	s.mux.HandleFunc("/v1/internal/join", s.handleClusterJoin)
	s.mux.HandleFunc("/v1/internal/gossip", s.handleClusterGossip)
	s.mux.HandleFunc("/v1/internal/handoff", s.handleHandoff)
	return s
}

// Handler returns the Server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain marks the server draining: /healthz turns 503 (so load
// balancers stop routing here) and new explorations are refused, while
// in-flight explorations run to completion. Pair with http.Server.Shutdown,
// which waits for them.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Abort cancels every in-flight exploration's context. The explorations
// degrade to their anytime best-effort results and the handlers still
// return complete responses — this is the drain-deadline escalation, not a
// hard kill.
func (s *Server) Abort() { s.abort() }

// Inflight reports the explorations currently running or queued.
func (s *Server) Inflight() int64 { return s.inflight.Load() + s.queued.Load() }

// --- request wire format ---

// exploreRequest is the POST /v1/explore body. Exactly one of spec (with
// budget) or demo must be set.
type exploreRequest struct {
	// Spec is a pruned application specification in the internal/spec JSON
	// format; Budget is its storage cycle budget per frame (required with
	// Spec).
	Spec   json.RawMessage `json:"spec,omitempty"`
	Budget uint64          `json:"budget,omitempty"`

	// Demo selects the built-in BTPC methodology run instead; the response
	// then carries the regenerated tables and figures.
	Demo *demoRequest `json:"demo,omitempty"`

	// TimeoutMS bounds this exploration; on expiry the response degrades to
	// best-effort (optimal=false / degraded=true) instead of erroring. 0
	// uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Params are the spec-mode tool knobs (ignored in demo mode, which uses
	// the calibrated defaults so its output matches cmd/dtse exactly).
	Params *paramsRequest `json:"params,omitempty"`
}

type demoRequest struct {
	Size  int    `json:"size,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`
	Quant int    `json:"quant,omitempty"`
}

// paramsRequest mirrors the cmd/specexplore flags.
type paramsRequest struct {
	OnChip       int     `json:"onchip,omitempty"`
	Threshold    *int64  `json:"threshold,omitempty"`
	Frame        float64 `json:"frame,omitempty"`
	InPlace      bool    `json:"inplace,omitempty"`
	Interconnect bool    `json:"interconnect,omitempty"`
}

// exploreResponse is the POST /v1/explore success body: variant for spec
// mode, results for demo mode.
type exploreResponse struct {
	Variant *core.VariantWire `json:"variant,omitempty"`
	Results *core.ResultsWire `json:"results,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// parsedRequest is a validated explore request with its spec decoded and
// its deduplication key derived.
type parsedRequest struct {
	req   *exploreRequest
	spec  *spec.Spec // spec mode only
	key   string     // canonical dedup key (deadline excluded)
	canon string     // canonical spec JSON (spec mode): the routing fingerprint
	mode  string     // "spec" or "demo", for introspection
	label string     // spec name or demo size, for introspection
	peer  string     // serving cluster node, when routed here by a peer
}

const maxRequestBody = 8 << 20

// parseExplore decodes and validates the request body. Error strings are
// client-facing.
func parseExplore(body io.Reader) (*parsedRequest, error) {
	dec := json.NewDecoder(io.LimitReader(body, maxRequestBody))
	dec.DisallowUnknownFields()
	req := &exploreRequest{}
	if err := dec.Decode(req); err != nil {
		return nil, fmt.Errorf("invalid request body: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("invalid request body: trailing data after the JSON object")
	}
	// A JSON null spec is an absent spec, like a null demo.
	if string(req.Spec) == "null" {
		req.Spec = nil
	}
	if (req.Spec == nil) == (req.Demo == nil) {
		return nil, fmt.Errorf("exactly one of spec or demo must be set")
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms %d out of range (must be >= 0)", req.TimeoutMS)
	}
	p := &parsedRequest{req: req}
	if req.Demo != nil {
		d := req.Demo
		if req.Budget != 0 || req.Params != nil {
			return nil, fmt.Errorf("budget and params apply to spec mode only")
		}
		if d.Size < 0 || d.Size > 4096 {
			return nil, fmt.Errorf("demo.size %d out of range [0, 4096]", d.Size)
		}
		if d.Quant < 0 {
			return nil, fmt.Errorf("demo.quant %d out of range (must be >= 0)", d.Quant)
		}
		p.key = fmt.Sprintf("demo|%d|%d|%d", d.Size, d.Seed, d.Quant)
		p.mode = "demo"
		p.label = fmt.Sprintf("size=%d", d.Size)
		return p, nil
	}
	if req.Budget == 0 {
		return nil, fmt.Errorf("budget is required with spec")
	}
	sp, err := spec.ParseJSON(req.Spec)
	if err != nil {
		return nil, fmt.Errorf("invalid spec: %v", err)
	}
	p.spec = sp
	onchip, threshold, frame, inplace, interconnect, err := specParams(req.Params)
	if err != nil {
		return nil, err
	}
	// The key pins every input that shapes the response — the budget, the
	// tool knobs, and the spec in its canonical serialization (request-side
	// whitespace and field order must not defeat deduplication):
	//
	//	spec|budget|onchip|threshold|frame|inplace|interconnect|canonical spec
	//
	// The deadline is deliberately excluded: only completed explorations
	// are cached, and a completed result is valid under any deadline.
	key := fmt.Appendf(make([]byte, 0, 128+5*len(req.Spec)/2), "spec|%d|%d|%d|%g|%t|%t|",
		req.Budget, onchip, threshold, frame, inplace, interconnect)
	prefix := len(key)
	if key, err = spec.AppendJSON(key, sp); err != nil {
		return nil, fmt.Errorf("invalid spec: %v", err)
	}
	p.key = string(key)
	p.canon = p.key[prefix:]
	p.mode = "spec"
	p.label = sp.Name
	return p, nil
}

// specParams resolves the spec-mode knobs to their cmd/specexplore
// defaults and validates them.
func specParams(pr *paramsRequest) (onchip int, threshold int64, frame float64, inplace, interconnect bool, err error) {
	onchip, threshold, frame = 4, 64*1024, 1.0
	if pr == nil {
		return
	}
	if pr.OnChip != 0 {
		onchip = pr.OnChip
	}
	if pr.Threshold != nil {
		threshold = *pr.Threshold
	}
	if pr.Frame != 0 {
		frame = pr.Frame
	}
	inplace, interconnect = pr.InPlace, pr.Interconnect
	switch {
	case onchip < 1:
		err = fmt.Errorf("params.onchip %d out of range (must be >= 1)", onchip)
	case threshold < 0:
		err = fmt.Errorf("params.threshold %d out of range (must be >= 0)", threshold)
	case frame <= 0:
		err = fmt.Errorf("params.frame %g out of range (must be > 0)", frame)
	}
	return
}

// --- handlers ---

// servedResponse is the cached unit of the Requests keyspace: the exact
// status and body bytes of one deterministic response. degraded marks a
// best-effort response computed under an expired deadline or abort; such
// responses are never cached, so cached entries are never degraded.
// volatile marks a completed response whose content may depend on which
// node computed it (a cut-short search in cluster mode, see explore), so
// it, too, is served once and never cached.
type servedResponse struct {
	status   int
	body     []byte
	degraded bool
	volatile bool
}

// CacheBytes implements memo.Sized: the retained footprint of a cached
// response is its body plus the struct.
func (r *servedResponse) CacheBytes() int { return len(r.body) + 64 }

// encodeServed/decodeServed are the Requests keyspace's disk codec:
// [4B status][body]. Only clean 200s are persisted — degraded and volatile
// responses never reach the encoder via the cacheability rule, but the
// guard stands on its own.
func encodeServed(v any) ([]byte, bool) {
	r, ok := v.(*servedResponse)
	if !ok || r.status != http.StatusOK || r.degraded || r.volatile {
		return nil, false
	}
	b := make([]byte, 4+len(r.body))
	binary.LittleEndian.PutUint32(b, uint32(r.status))
	copy(b[4:], r.body)
	return b, true
}

func decodeServed(b []byte) (any, bool) {
	if len(b) < 4 || int(binary.LittleEndian.Uint32(b)) != http.StatusOK {
		return nil, false
	}
	return &servedResponse{status: http.StatusOK, body: b[4:]}, true
}

// canonOfKey recovers the canonical spec JSON from a Requests dedup key
// (its eighth |-separated field; the seven leading knob fields never
// contain a pipe).
func canonOfKey(key string) (string, bool) {
	if !strings.HasPrefix(key, "spec|") {
		return "", false
	}
	parts := strings.SplitN(key, "|", 8)
	if len(parts) != 8 {
		return "", false
	}
	return parts[7], true
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	// The trace id is assigned before any early exit, so every response —
	// including 405, 400, 429, and 503 — is correlatable with telemetry and
	// flight-recorder entries. A cluster-internal request adopts the
	// forwarding node's trace id instead, so a routed request is one trace
	// end to end (the marker gates adoption: external clients cannot pick
	// their own ids).
	internal := s.cluster != nil && isInternal(r)
	tid := fmt.Sprintf("%s-%06d", s.runID, s.nextTrace.Add(1))
	if internal {
		if t := r.Header.Get("X-Trace-Id"); t != "" {
			tid = t
		}
	}
	w.Header().Set("X-Trace-Id", tid)
	sse := wantsSSE(r)
	if r.Method != http.MethodPost && !(r.Method == http.MethodGet && sse) {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed,
			"POST only (GET is accepted with Accept: text/event-stream and ?request=)")
		return
	}
	s.requests.Add(1)
	s.obs.Counter("server.requests").Add(1)
	start := time.Now()
	defer func() {
		us := time.Since(start).Microseconds()
		s.lat.record(us)
		s.reqHist.ObserveUS(us)
	}()

	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	body := io.Reader(r.Body)
	if r.Method == http.MethodGet {
		// EventSource clients cannot POST; they pass the request JSON in the
		// query string instead.
		q := r.URL.Query().Get("request")
		if q == "" {
			s.obs.Counter("server.bad_requests").Add(1)
			s.writeError(w, http.StatusBadRequest, "GET requires the request JSON in ?request=")
			return
		}
		body = strings.NewReader(q)
	}
	// In cluster mode the raw body is buffered so the request can be
	// forwarded byte-for-byte to its ring owner. SSE streams stay local
	// (progress events do not proxy usefully), and internal requests are
	// served where they land — forwarding is one hop, never a loop.
	var raw []byte
	if s.cluster != nil && !internal && !sse && r.Method == http.MethodPost {
		var err error
		raw, err = io.ReadAll(io.LimitReader(r.Body, maxRequestBody))
		if err != nil {
			s.obs.Counter("server.bad_requests").Add(1)
			s.writeError(w, http.StatusBadRequest, "read error: "+err.Error())
			return
		}
		body = bytes.NewReader(raw)
	}
	p, err := parseExplore(body)
	if err != nil {
		s.obs.Counter("server.bad_requests").Add(1)
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if internal {
		p.peer = s.cluster.router.Self()
	}
	if raw != nil {
		if resp, served := s.routeExplore(r.Context(), p, raw, tid); served {
			s.writeResponse(w, resp)
			return
		}
	}

	// The exploration context: canceled by client disconnect, by Abort, and
	// by the effective per-request deadline.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()
	if d := s.effectiveTimeout(p.req.TimeoutMS); d > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, d)
		defer tcancel()
	}

	release, ok := s.admit(ctx)
	if !ok {
		s.obs.Counter("server.rejected_overload").Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		s.writeError(w, http.StatusTooManyRequests, "exploration queue is full")
		return
	}
	defer release()

	prog := s.registerLive(tid, p)
	defer s.unregisterLive(tid)
	if sse {
		s.serveSSE(ctx, w, r, p, tid, prog)
		return
	}
	s.writeResponse(w, s.runExploration(ctx, p, tid, prog))
}

// --- batched serving ---

// batchRequest is the POST /v1/explore/batch body: up to maxBatchItems
// explore requests evaluated against the same session state — one admission
// slot, one evaluation cache, one worker pool — so throughput clients
// amortize per-request setup across items.
type batchRequest struct {
	Items []json.RawMessage `json:"items"`
}

// batchItem is one item's outcome. Status and body are exactly what a
// standalone POST /v1/explore of the item would have returned (per-item
// dedup through the same Requests keyspace included); degraded mirrors the
// item's own deadline semantics, and trace_id names the item's root span.
type batchItem struct {
	Index    int             `json:"index"`
	Status   int             `json:"status"`
	Degraded bool            `json:"degraded,omitempty"`
	TraceID  string          `json:"trace_id"`
	Body     json.RawMessage `json:"body"`
}

type batchResponse struct {
	Items []batchItem `json:"items"`
}

// maxBatchItems bounds one batch request. A larger sweep should be split:
// each batch holds one exploration slot for its whole duration.
const maxBatchItems = 64

// handleExploreBatch runs N explorations under one admission slot, fanned
// out on the shared session worker pool. Per-item failures (bad item JSON,
// infeasible spec, expired per-item deadline) land in that item's result;
// the envelope itself fails only on malformed batch JSON or overload. The
// envelope is never cached — each item deduplicates individually, so a
// batch overlapping earlier traffic gets per-item cache hits.
func (s *Server) handleExploreBatch(w http.ResponseWriter, r *http.Request) {
	internal := s.cluster != nil && isInternal(r)
	tid := fmt.Sprintf("%s-%06d", s.runID, s.nextTrace.Add(1))
	if internal {
		if t := r.Header.Get("X-Trace-Id"); t != "" {
			tid = t
		}
	}
	w.Header().Set("X-Trace-Id", tid)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.requests.Add(1)
	s.obs.Counter("server.requests").Add(1)
	s.obs.Counter("server.batch_requests").Add(1)
	start := time.Now()
	defer func() {
		us := time.Since(start).Microseconds()
		s.lat.record(us)
		s.reqHist.ObserveUS(us)
	}()

	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	var breq batchRequest
	if err := dec.Decode(&breq); err != nil {
		s.obs.Counter("server.bad_requests").Add(1)
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid batch body: %v", err))
		return
	}
	n := len(breq.Items)
	if n == 0 {
		s.obs.Counter("server.bad_requests").Add(1)
		s.writeError(w, http.StatusBadRequest, "items must not be empty")
		return
	}
	if n > maxBatchItems {
		s.obs.Counter("server.bad_requests").Add(1)
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("%d items exceed the batch limit %d", n, maxBatchItems))
		return
	}
	// Parse every item up front: an invalid item becomes its own 400 result
	// without costing the valid ones anything.
	parsed := make([]*parsedRequest, n)
	parseErrs := make([]error, n)
	for i, raw := range breq.Items {
		parsed[i], parseErrs[i] = parseExplore(bytes.NewReader(raw))
		if internal && parsed[i] != nil {
			parsed[i].peer = s.cluster.router.Self()
		}
	}

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	// A cluster-internal sub-batch is already accounted by the admission
	// slot its origin node holds for the whole batch; admitting it here too
	// could deadlock two fronts cross-forwarding sub-batches while their
	// slots wait on each other. Work stays bounded: one internal batch per
	// origin slot, cluster-wide.
	if !internal {
		release, ok := s.admit(ctx)
		if !ok {
			s.obs.Counter("server.rejected_overload").Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
			s.writeError(w, http.StatusTooManyRequests, "exploration queue is full")
			return
		}
		defer release()
	}

	results := make([]*servedResponse, n)
	tids := make([]string, n)
	runLocal := func(i int) {
		tids[i] = fmt.Sprintf("%s.%d", tid, i)
		if parseErrs[i] != nil {
			s.obs.Counter("server.bad_requests").Add(1)
			results[i] = errResponse(http.StatusBadRequest, parseErrs[i])
			return
		}
		ictx, icancel := ctx, context.CancelFunc(nil)
		if d := s.effectiveTimeout(parsed[i].req.TimeoutMS); d > 0 {
			ictx, icancel = context.WithTimeout(ctx, d)
		}
		prog := s.registerLive(tids[i], parsed[i])
		results[i] = s.runExploration(ictx, parsed[i], tids[i], prog)
		s.unregisterLive(tids[i])
		if icancel != nil {
			icancel()
		}
	}
	// Cluster mode: items owned by live peers go out as sub-batches (trace
	// ids "<tid>.p<seq>"), concurrently with the locally-owned items. A
	// failed sub-batch leaves its items nil; the second local pass below
	// recomputes them, so peer failures cost latency, never item failures.
	remoteIdx := make([]bool, n)
	var remoteWG sync.WaitGroup
	if s.cluster != nil && !internal {
		remote := s.planBatch(parsed, parseErrs)
		owners := make([]string, 0, len(remote))
		for owner := range remote {
			owners = append(owners, owner)
		}
		sort.Strings(owners)
		for seq, owner := range owners {
			idxs := remote[owner]
			for _, i := range idxs {
				remoteIdx[i] = true
			}
			subTid := fmt.Sprintf("%s.p%d", tid, seq+1)
			remoteWG.Add(1)
			go func(owner string, idxs []int, subTid string) {
				defer remoteWG.Done()
				s.forwardBatchGroup(ctx, owner, idxs, breq.Items, subTid, results, tids)
			}(owner, idxs, subTid)
		}
	}
	s.workers.ForEach(ctx, n, func(i int) {
		if remoteIdx[i] {
			return
		}
		runLocal(i)
	})
	remoteWG.Wait()
	s.workers.ForEach(ctx, n, func(i int) {
		if remoteIdx[i] && results[i] == nil {
			runLocal(i)
		}
	})
	s.obs.Counter("server.batch_items").Add(int64(n))

	// ForEach stops launching items once ctx is done (client disconnect or
	// server drain mid-batch), leaving the unlaunched tail nil. Give those
	// items a defined 503 result so the envelope below never dereferences a
	// nil response.
	for i := range results {
		if results[i] == nil {
			tids[i] = fmt.Sprintf("%s.%d", tid, i)
			results[i] = errResponse(http.StatusServiceUnavailable,
				errors.New("canceled before start"))
		}
	}

	env := batchResponse{Items: make([]batchItem, n)}
	for i, res := range results {
		env.Items[i] = batchItem{
			Index:    i,
			Status:   res.status,
			Degraded: res.degraded,
			TraceID:  tids[i],
			Body:     json.RawMessage(bytes.TrimRight(res.body, "\n")),
		}
	}
	body, err := json.Marshal(env)
	if err != nil {
		s.writeResponse(w, errResponse(http.StatusInternalServerError, err))
		return
	}
	s.writeResponse(w, &servedResponse{status: http.StatusOK, body: append(body, '\n')})
}

// runExploration runs one admitted exploration under its telemetry span,
// capturing the span subtree and counter deltas when the flight recorder
// might want them.
func (s *Server) runExploration(ctx context.Context, p *parsedRequest, tid string, prog *obs.Progress) *servedResponse {
	start := time.Now()
	sp := s.obs.Start("serve.explore")
	sp.SetStr("trace_id", tid)
	if p.peer != "" {
		sp.SetStr("peer", p.peer)
	}
	var capture *obs.Collector
	var before obs.Snapshot
	if s.flight != nil {
		capture = s.obs.CaptureSubtree(sp)
		before = s.obs.Snapshot()
	}
	resp := s.dedup(ctx, p, sp, prog)
	sp.SetInt("status", int64(resp.status))
	sp.End()
	if s.flight != nil {
		s.obs.ReleaseSubtree(sp)
		s.maybeRecordFlight(tid, p, resp, start, capture, before, prog)
	}
	return resp
}

// maybeRecordFlight adds the finished request to the flight recorder when
// it errored, degraded, or exceeded the slow threshold.
func (s *Server) maybeRecordFlight(tid string, p *parsedRequest, resp *servedResponse,
	start time.Time, capture *obs.Collector, before obs.Snapshot, prog *obs.Progress) {
	dur := time.Since(start)
	var reason string
	switch {
	case resp.status >= 400:
		reason = "error"
	case resp.degraded:
		reason = "degraded"
	case s.opts.SlowRequest > 0 && dur >= s.opts.SlowRequest:
		reason = "slow"
	default:
		return
	}
	e := &FlightEntry{
		TraceID:    tid,
		Start:      start,
		Reason:     reason,
		Status:     resp.status,
		DurationMS: float64(dur.Microseconds()) / 1e3,
		Mode:       p.mode,
		Label:      p.label,
		Degraded:   resp.degraded,
		Search:     prog.Snapshot(),
	}
	if capture != nil {
		e.Spans = capture.Records()
		after := s.obs.Snapshot()
		e.Counters = deltaCounters(before.Counters, after.Counters)
		e.Gauges = after.Gauges
	}
	s.flight.add(e)
}

// dedup answers the request through the Requests keyspace: identical
// in-flight requests share one exploration, identical later requests are
// answered from the session. A compute cut short by its deadline (or by
// Abort) publishes uncacheable, so it is returned only to the request that
// ran it — concurrent duplicates with live deadlines take over and
// recompute rather than inherit a degraded response.
func (s *Server) dedup(ctx context.Context, p *parsedRequest, sp *obs.Span, prog *obs.Progress) *servedResponse {
	hit := true
	prog.SetStage("dedup")
	v := s.memo.Do(memo.Requests, p.key, func() (any, bool) {
		hit = false
		resp := s.explore(ctx, p, sp, prog)
		cacheable := resp.status == http.StatusOK && ctx.Err() == nil && !resp.volatile
		return resp, cacheable
	})
	if hit {
		s.obs.Counter("server.dedup_hits").Add(1)
		sp.SetStr("dedup", "hit")
	}
	return v.(*servedResponse)
}

// explore runs the exploration and serializes the response. The body is a
// deterministic function of the parsed request (trace IDs and timing live
// in headers and telemetry only), which is what makes caching sound.
func (s *Server) explore(ctx context.Context, p *parsedRequest, sp *obs.Span, prog *obs.Progress) *servedResponse {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	s.obs.Gauge("server.inflight").Set(s.inflight.Load())
	if s.holdExplore != nil {
		s.holdExplore(ctx)
	}

	ep := core.DefaultEvalParams()
	ep.Obs = s.obs
	ep.Span = sp
	ep.Memo = s.memo
	ep.Workers = s.workers
	ep.Progress = prog

	env := &exploreResponse{}
	volatile := false
	if p.req.Demo != nil {
		d := p.req.Demo
		res, err := core.RunAllContext(ctx, core.DemoConfig{Size: d.Size, Seed: d.Seed, Quant: d.Quant}, ep)
		if err != nil {
			return errResponse(http.StatusUnprocessableEntity, err)
		}
		wire, err := res.Wire()
		if err != nil {
			return errResponse(http.StatusInternalServerError, err)
		}
		env.Results = wire
	} else {
		onchip, threshold, frame, inplace, interconnect, _ := specParams(p.req.Params)
		tech := *ep.Tech
		tech.OnChipMaxWords = threshold
		tech.FramePeriod = frame
		if interconnect {
			tech.Bus = tech.WithInterconnect().Bus
		}
		ep.Tech = &tech
		ep.SBD.OnChipMaxWords = threshold
		ep.Assign.OnChipMaxWords = threshold
		ep.Assign.InPlace = inplace
		ep.OnChipCount = onchip
		v, err := core.EvaluateContext(ctx, p.spec, p.req.Budget, p.spec.Name, ep)
		if err != nil {
			return errResponse(http.StatusUnprocessableEntity, err)
		}
		env.Variant = v.Wire()
		// In cluster mode a key can be computed on several nodes (owner,
		// hedge target, local fallback), and a search cut short by its node
		// budget is not a proven optimum, so non-optimal spec responses are
		// volatile there: every cached body in the ring is a completed
		// search.
		volatile = s.cluster != nil && !env.Variant.Optimal
	}
	body, err := json.Marshal(env)
	if err != nil {
		return errResponse(http.StatusInternalServerError, err)
	}
	// Degraded mirrors the cacheability rule: a 200 computed under a dead
	// context is the anytime best-effort answer, not the full exploration.
	return &servedResponse{status: http.StatusOK, body: append(body, '\n'), degraded: ctx.Err() != nil, volatile: volatile}
}

func errResponse(status int, err error) *servedResponse {
	body, _ := json.Marshal(errorResponse{Error: err.Error()})
	return &servedResponse{status: status, body: append(body, '\n')}
}

// effectiveTimeout resolves the request deadline: the request's own when
// set, else the server default — both clamped by MaxTimeout.
func (s *Server) effectiveTimeout(requestMS int64) time.Duration {
	d := s.opts.DefaultTimeout
	if requestMS > 0 {
		d = time.Duration(requestMS) * time.Millisecond
	}
	if s.opts.MaxTimeout > 0 && (d <= 0 || d > s.opts.MaxTimeout) {
		d = s.opts.MaxTimeout
	}
	return d
}

// retryAfterSeconds maps queue depth to the 429 Retry-After hint. The
// queue drains maxConcurrent slots per typical request duration, so a
// rejected request's wait is ceil((queued+1)/maxConcurrent) such waves —
// a loaded server tells clients to back off longer instead of inviting a
// thundering retry herd after a flat interval.
func retryAfterSeconds(queued, maxConcurrent int, typical time.Duration) int {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	if queued < 0 {
		queued = 0
	}
	if typical <= 0 {
		typical = time.Second
	}
	waves := (queued + maxConcurrent) / maxConcurrent // ceil((queued+1)/maxConcurrent)
	secs := int(math.Ceil(float64(waves) * typical.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// retryAfter derives the live Retry-After hint: the observed p50 request
// duration when there is one, else the configured default deadline, else
// one second.
func (s *Server) retryAfter() int {
	typical := time.Duration(s.reqHist.Snapshot().P50US) * time.Microsecond
	if typical <= 0 {
		typical = s.opts.DefaultTimeout
	}
	return retryAfterSeconds(int(s.queued.Load()), s.opts.MaxConcurrent, typical)
}

// admit acquires an exploration slot, queueing up to MaxQueue requests.
// It fails (→ 429) when the queue is full, or when ctx dies while queued.
func (s *Server) admit(ctx context.Context) (release func(), ok bool) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	default:
	}
	if q := s.queued.Add(1); q > int64(s.opts.MaxQueue) {
		s.queued.Add(-1)
		return nil, false
	}
	s.obs.Counter("server.queued").Add(1)
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	case <-ctx.Done():
		return nil, false
	}
}

func (s *Server) writeResponse(w http.ResponseWriter, resp *servedResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.status)
	w.Write(resp.body)
	s.countStatus(resp.status)
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	s.writeResponse(w, &servedResponse{
		status: status,
		body:   append(mustMarshal(errorResponse{Error: msg}), '\n'),
	})
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // marshaling our own plain structs cannot fail
	}
	return b
}

func (s *Server) countStatus(status int) {
	if c := status / 100; c >= 0 && c < len(s.responses) {
		s.responses[c].Add(1)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// metricsResponse is the GET /metrics.json body: the server's own gauges
// and latency percentiles, the telemetry counter/gauge/histogram snapshot,
// and the session cache accounting.
type metricsResponse struct {
	Server serverMetrics         `json:"server"`
	Obs    obs.Snapshot          `json:"obs"`
	Memo   map[string]memo.Stats `json:"memo,omitempty"`
	Disk   *memo.DiskStats       `json:"disk,omitempty"`
}

type serverMetrics struct {
	Inflight     int64 `json:"inflight"`
	Queued       int64 `json:"queued"`
	Requests     int64 `json:"requests_total"`
	OK           int64 `json:"responses_2xx"`
	ClientErrors int64 `json:"responses_4xx"`
	ServerErrors int64 `json:"responses_5xx"`
	// The latency ring percentiles are the bounded-window fallback view;
	// LatencyHist is the lifetime histogram behind
	// dtse_request_duration_seconds.
	LatencyCount int64                 `json:"latency_count"`
	LatencyP50US int64                 `json:"latency_p50_us"`
	LatencyP99US int64                 `json:"latency_p99_us"`
	LatencyHist  obs.HistogramSnapshot `json:"latency_hist"`
	Flights      int                   `json:"flight_entries"`
	Open         int                   `json:"open_explorations"`
	Draining     bool                  `json:"draining"`
}

// handleMetrics content-negotiates the exposition: Prometheus text by
// default, the JSON snapshot when the client asks for application/json
// (also always available at /metrics.json).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		s.handleMetricsJSON(w, r)
		return
	}
	s.handleMetricsProm(w, r)
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	n, p50, p99 := s.lat.percentiles()
	m := metricsResponse{
		Server: serverMetrics{
			Inflight:     s.inflight.Load(),
			Queued:       s.queued.Load(),
			Requests:     s.requests.Load(),
			OK:           s.responses[2].Load(),
			ClientErrors: s.responses[4].Load(),
			ServerErrors: s.responses[5].Load(),
			LatencyCount: n,
			LatencyP50US: p50,
			LatencyP99US: p99,
			LatencyHist:  s.reqHist.Snapshot(),
			Open:         s.openExplorations(),
			Draining:     s.draining.Load(),
		},
		Obs: s.obs.Snapshot(),
	}
	if s.flight != nil {
		m.Server.Flights = s.flight.size()
	}
	if s.memo != nil {
		m.Memo = make(map[string]memo.Stats)
		for _, sp := range []memo.Space{memo.Schedule, memo.LoopPatterns, memo.PrunedPatterns, memo.Ports, memo.Requests} {
			m.Memo[sp.String()] = s.memo.Stats(sp)
		}
	}
	if s.opts.Disk != nil {
		ds := s.opts.Disk.Stats()
		m.Disk = &ds
	}
	body, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

// latencyRing keeps the last latencySamples request latencies for the
// /metrics percentiles — a bounded window, so a long-running daemon reports
// recent behaviour rather than its lifetime average.
const latencySamples = 1024

type latencyRing struct {
	mu  sync.Mutex
	buf [latencySamples]int64
	n   atomic.Int64
}

func (l *latencyRing) record(us int64) {
	i := l.n.Add(1) - 1
	l.mu.Lock()
	l.buf[i%latencySamples] = us
	l.mu.Unlock()
}

// percentiles returns the sample count and the p50/p99 of the current
// window (zeros when empty).
func (l *latencyRing) percentiles() (n, p50, p99 int64) {
	n = l.n.Load()
	if n == 0 {
		return 0, 0, 0
	}
	k := n
	if k > latencySamples {
		k = latencySamples
	}
	window := make([]int64, k)
	l.mu.Lock()
	copy(window, l.buf[:k])
	l.mu.Unlock()
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	// Nearest-rank percentile: the smallest sample with at least p·k samples
	// at or below it, i.e. window[ceil(p·k)-1]. The old floor(p·(k-1)) form
	// under-reported at small counts — with two samples it returned the
	// minimum as the p99.
	idx := func(p float64) int64 {
		i := int(math.Ceil(p*float64(k))) - 1
		if i < 0 {
			i = 0
		}
		if i >= int(k) {
			i = int(k) - 1
		}
		return window[i]
	}
	return n, idx(0.50), idx(0.99)
}
