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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/canonjson"
	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/scratch"
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
//	POST /v1/explore/batch      up to 64 explore requests under one
//	                            admission slot; per-item status/degraded/
//	                            trace-id results
//	GET  /healthz               liveness ("ok", or 503 while draining)
//	GET  /metrics               Prometheus text exposition of the metrics
//	                            snapshot
//	GET  /metrics.json          the same snapshot as JSON: server counters
//	                            and latencies, observer, cache, disk tier,
//	                            cluster, pool and Go runtime
//	GET  /debug/explorations    in-flight request registry: stage, elapsed,
//	                            search nodes, incumbent cost, bound gap
//	GET  /debug/flightrecorder  last N slow/degraded/errored requests with
//	                            their span trees and search positions
//
// Both explore endpoints take one serving path, serveItems: a single POST
// is a request of one item, a batch a request of N. It resolves each
// item's raw bytes through the Aliases keyspace (bytes seen before skip
// the parse), holds one admission slot for an external request's whole
// life, forwards the items peers own in cluster mode and runs the rest on
// the session worker pool. An SSE stream is a thin local wrapper over the
// same exploration.
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
	// NoCache disables the session cache and the run cache of every demo
	// exploration: every request recomputes. Responses are byte-identical
	// either way.
	NoCache bool
	// CacheBytes caps each of the session cache's two keyspaces
	// (responses and request aliases) at this many bytes; entries beyond
	// it are evicted CLOCK-wise. <= 0 leaves responses unbounded and caps
	// the aliases at defaultAliasBytes (8 MiB).
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
	// degraded, or errored requests kept with their span trees and final
	// search position for /debug/flightrecorder. 0 means 64; negative disables the
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

	// reqHist is the request-latency histogram behind
	// dtse_request_duration_seconds, the /metrics.json latency fields and
	// the Retry-After estimate. Owned by the server (not the observer) so
	// /metrics has latency data even with Obs == nil.
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
	if opts.NoCache {
		// The disk tier is a tier of the session cache: no cache, no tier.
		opts.Disk = nil
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
		s.memo = memo.New(sessionSpaces...)
		for _, sp := range sessionSpaces {
			s.memo.Bound(sp, opts.CacheBytes) // a no-op when <= 0
		}
		if opts.CacheBytes <= 0 {
			s.memo.Bound(memo.Aliases, defaultAliasBytes)
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
	s.mux.HandleFunc("/metrics", s.handleMetricsProm)
	s.mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) { writeJSON(w, s.metrics()) })
	s.mux.HandleFunc("/debug/explorations", s.handleExplorations)
	s.mux.HandleFunc("/debug/flightrecorder", s.handleFlightRecorder)
	// Cluster-internal gossip and shard handoff; 404 until JoinCluster.
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
	Spec   specField `json:"spec,omitempty"`
	Budget uint64    `json:"budget,omitempty"`

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

// specField holds the spec member of a request. readExplore fills it in
// its one pass; encoding/json decodes it where the decoder meets it, so
// its bytes are never copied out of the decoder's buffer. A spec that
// fails to parse keeps its error for parseExplore, whose checks of the
// request around it come first. A JSON null spec is an absent spec, like
// a null demo.
type specField struct {
	set  bool
	spec *spec.Spec
	err  error
}

func (f *specField) UnmarshalJSON(b []byte) error {
	*f = specField{}
	if string(b) != "null" {
		f.set = true
		f.spec, f.err = spec.ParseJSON(b)
	}
	return nil
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

// parsedRequest is what a successful parse of one request body yields:
// its deduplication key and everything serving needs besides the decoded
// spec. It is the value of the Aliases keyspace, shared by every later
// request with the same bytes, so nothing modifies it after parseExplore.
type parsedRequest struct {
	key       memo.Key        // dedup key (deadline excluded); its word is the ring fingerprint
	mode      string          // "spec" or "demo", for introspection
	label     string          // spec name or demo size, for introspection
	timeoutMS int64           // the request's own deadline; 0 uses the server default
	budget    uint64          // spec mode: the storage cycle budget per frame
	knobs     core.SpecKnobs  // spec mode: the resolved tool knobs
	demo      core.DemoConfig // demo mode: the methodology run
}

// CacheBytes implements memo.Sized: the struct plus its label.
func (p *parsedRequest) CacheBytes() int { return int(unsafe.Sizeof(*p)) + len(p.label) }

const maxRequestBody = 8 << 20

// defaultAliasBytes caps the Aliases keyspace when ServeOptions.CacheBytes
// leaves the cache unbounded: about 25 000 aliases of some 330 bytes each.
// An alias is keyed by raw request bytes, which a client can vary without
// end (whitespace, field order, timeout_ms), so that space is never left
// unbounded.
const defaultAliasBytes = 8 << 20

// sessionSpaces are the keyspaces of the session cache: the request tiers,
// which later requests re-read. A demo exploration's schedules and
// assignment answers live in its own run cache and go with it.
var sessionSpaces = []memo.Space{memo.Aliases, memo.Requests}

// readBody reads a request body whole into a buffer sized from its
// Content-Length, so a body of known length costs one allocation. At most
// maxRequestBody bytes are read; a longer body is cut there, and the parse
// of the cut bytes fails.
func readBody(r *http.Request) ([]byte, error) {
	size := int64(512) // unknown length: grown as it arrives
	if r.ContentLength >= 0 {
		size = min(r.ContentLength, maxRequestBody)
	}
	body := io.LimitReader(r.Body, maxRequestBody)
	buf := make([]byte, 0, size+1) // the spare byte reads EOF without growing
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// atEnd reports whether only whitespace follows the value dec decoded.
// Decoder.More alone would miss a stray ']' or '}'.
func atEnd(dec *json.Decoder) bool {
	_, err := dec.Token()
	return err == io.EOF
}

// parseExplore decodes and validates one request body, returning with
// the parsed request the spec it decoded (nil in demo mode). Error strings
// are client-facing. A body outside the canonical subset (readExplore)
// counts in o's server.parse_fallbacks and is decoded by encoding/json.
func parseExplore(raw []byte, o *obs.Observer) (*parsedRequest, *spec.Spec, error) {
	req, ok := readExplore(raw)
	if !ok {
		o.Counter("server.parse_fallbacks").Add(1)
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		req = &exploreRequest{}
		if err := dec.Decode(req); err != nil {
			return nil, nil, fmt.Errorf("invalid request body: %v", err)
		}
		if !atEnd(dec) {
			return nil, nil, fmt.Errorf("invalid request body: trailing data after the JSON object")
		}
	}
	if req.Spec.set == (req.Demo != nil) {
		return nil, nil, fmt.Errorf("exactly one of spec or demo must be set")
	}
	if req.TimeoutMS < 0 {
		return nil, nil, fmt.Errorf("timeout_ms %d out of range (must be >= 0)", req.TimeoutMS)
	}
	p := &parsedRequest{timeoutMS: req.TimeoutMS}
	if req.Demo != nil {
		d := req.Demo
		if req.Budget != 0 || req.Params != nil {
			return nil, nil, fmt.Errorf("budget and params apply to spec mode only")
		}
		if d.Size < 0 || d.Size > 4096 {
			return nil, nil, fmt.Errorf("demo.size %d out of range [0, 4096]", d.Size)
		}
		if d.Quant < 0 {
			return nil, nil, fmt.Errorf("demo.quant %d out of range (must be >= 0)", d.Quant)
		}
		key := fmt.Appendf(nil, "demo|%d|%d|%d", d.Size, d.Seed, d.Quant)
		p.key = memo.NewKey(key, memo.Fingerprint64(key))
		p.mode = "demo"
		p.label = fmt.Sprintf("size=%d", d.Size)
		p.demo = core.DemoConfig{Size: d.Size, Seed: d.Seed, Quant: d.Quant}
		return p, nil, nil
	}
	if req.Budget == 0 {
		return nil, nil, fmt.Errorf("budget is required with spec")
	}
	sp := req.Spec.spec
	if err := req.Spec.err; err != nil {
		return nil, nil, fmt.Errorf("invalid spec: %v", err)
	}
	k, err := specParams(req.Params)
	if err != nil {
		return nil, nil, err
	}
	p.budget, p.knobs = req.Budget, k
	// The key is the digest of every input that shapes the response — the
	// budget, the tool knobs, and the spec in its canonical serialization
	// (request-side whitespace and field order must not defeat
	// deduplication):
	//
	//	spec|budget|onchip|threshold|frame|inplace|interconnect|canonical spec
	//
	// Its word, the ring fingerprint, hashes the canonical spec alone, so
	// budget and knob variants of one spec land on one node; each still
	// explores from scratch, sharing no work with the others. The
	// deadline is deliberately excluded: only completed explorations are
	// cached, and a completed result is valid under any deadline.
	ar := scratch.Get() // the canonical bytes are garbage once hashed
	defer scratch.Put(ar)
	key := fmt.Appendf(ar.Buf(128+5*len(raw)/2), "spec|%d|%d|%d|%g|%t|%t|",
		req.Budget, k.OnChip, k.Threshold, k.Frame, k.InPlace, k.Interconnect)
	prefix := len(key)
	if key, err = spec.AppendJSON(key, sp); err != nil {
		return nil, nil, fmt.Errorf("invalid spec: %v", err)
	}
	p.key = memo.NewKey(key, memo.Fingerprint64(key[prefix:]))
	p.mode = "spec"
	p.label = strings.Clone(sp.Name) // the spec's strings share one copy of the body
	return p, sp, nil
}

// The keys of each object of a request body.
var (
	exploreKeys = []string{"spec", "budget", "demo", "timeout_ms", "params"}
	demoKeys    = []string{"size", "seed", "quant"}
	paramsKeys  = []string{"onchip", "threshold", "frame", "inplace", "interconnect"}
	batchKeys   = []string{"items"}
)

// readExplore decodes a request body in one pass when it is in the
// canonical subset of JSON (package canonjson), spec included. It reports
// false for any other body, which encoding/json then decodes: what the
// subset holds decodes to the same request either way, so encoding/json
// alone words every malformed body's error.
func readExplore(raw []byte) (*exploreRequest, bool) {
	r := canonjson.NewReader(raw)
	req := &exploreRequest{}
	var seen uint64
	r.Open('{')
	for n := 0; r.More('}', n); n++ {
		switch r.Key(exploreKeys, &seen) {
		case "spec":
			req.Spec.set = true
			req.Spec.spec, req.Spec.err = spec.DecodeCanonical(&r)
		case "budget":
			req.Budget = r.Uint()
		case "demo":
			req.Demo = readDemo(&r)
		case "timeout_ms":
			req.TimeoutMS = r.Int(64)
		case "params":
			req.Params = readParams(&r)
		}
	}
	return req, r.End()
}

func readDemo(r *canonjson.Reader) *demoRequest {
	d := &demoRequest{}
	var seen uint64
	r.Open('{')
	for n := 0; r.More('}', n); n++ {
		switch r.Key(demoKeys, &seen) {
		case "size":
			d.Size = int(r.Int(strconv.IntSize))
		case "seed":
			d.Seed = r.Uint()
		case "quant":
			d.Quant = int(r.Int(strconv.IntSize))
		}
	}
	return d
}

func readParams(r *canonjson.Reader) *paramsRequest {
	p := &paramsRequest{}
	var seen uint64
	r.Open('{')
	for n := 0; r.More('}', n); n++ {
		switch r.Key(paramsKeys, &seen) {
		case "onchip":
			p.OnChip = int(r.Int(strconv.IntSize))
		case "threshold":
			t := r.Int(64)
			p.Threshold = &t
		case "frame":
			p.Frame = r.Float()
		case "inplace":
			p.InPlace = r.Bool()
		case "interconnect":
			p.Interconnect = r.Bool()
		}
	}
	return p
}

// specParams resolves the spec-mode knobs to their cmd/specexplore
// defaults and validates them.
func specParams(pr *paramsRequest) (core.SpecKnobs, error) {
	k := core.DefaultSpecKnobs()
	if pr == nil {
		return k, nil
	}
	if pr.OnChip != 0 {
		k.OnChip = pr.OnChip
	}
	if pr.Threshold != nil {
		k.Threshold = *pr.Threshold
	}
	if pr.Frame != 0 {
		k.Frame = pr.Frame
	}
	k.InPlace, k.Interconnect = pr.InPlace, pr.Interconnect
	if r := k.Check(); r != nil {
		return k, fmt.Errorf("params.%s %s out of range (%s)", r.Knob, r.Value, r.Rule)
	}
	return k, nil
}

// --- handlers ---

// servedResponse is the cached unit of the Requests keyspace: the exact
// status and body bytes of one deterministic response. degraded marks a
// best-effort response computed under an expired deadline or abort; such
// responses are never cached, so cached entries are never degraded.
type servedResponse struct {
	status   int
	body     []byte
	degraded bool
}

// CacheBytes implements memo.Sized: the retained footprint of a cached
// response is its body plus the struct.
func (r *servedResponse) CacheBytes() int { return len(r.body) + 64 }

// encodeServed/decodeServed are the Requests keyspace's disk codec:
// [4B status][body]. Only clean 200s are persisted — degraded responses
// never reach the encoder via the cacheability rule, but the guard stands
// on its own.
func encodeServed(v any) ([]byte, bool) {
	r, ok := v.(*servedResponse)
	if !ok || r.status != http.StatusOK || r.degraded {
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

// beginRequest assigns the request's trace id before any early exit, so
// every response — including 405, 400, 429, and 503 — is correlatable with
// telemetry and flight-recorder entries. A cluster-internal request adopts
// the forwarding node's trace id instead, so a routed request is one trace
// end to end (the marker gates adoption: external clients cannot pick
// their own ids). ok=false means the method was refused and the 405 is
// written.
func (s *Server) beginRequest(w http.ResponseWriter, r *http.Request, allowed bool, notAllowed string) (tid string, internal, ok bool) {
	internal = s.cluster != nil && isInternal(r)
	tid = fmt.Sprintf("%s-%06d", s.runID, s.nextTrace.Add(1))
	if t := r.Header.Get("X-Trace-Id"); internal && t != "" {
		tid = t
	}
	w.Header().Set("X-Trace-Id", tid)
	if !allowed {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, notAllowed)
		return tid, internal, false
	}
	s.requests.Add(1)
	return tid, internal, true
}

// observeLatency records one request's latency in reqHist, the single
// record behind /metrics, /metrics.json and the Retry-After estimate.
func (s *Server) observeLatency(start time.Time) {
	s.reqHist.ObserveUS(time.Since(start).Microseconds())
}

// refuseDraining answers 503 while the server drains.
func (s *Server) refuseDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	s.writeError(w, http.StatusServiceUnavailable, "server is draining")
	return true
}

// handleExplore serves POST /v1/explore as a request of one item: the item
// runs through serveItems and its bare body is written under its trace id.
// With Accept: text/event-stream the request streams instead (exploreSSE).
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	sse := wantsSSE(r)
	tid, internal, ok := s.beginRequest(w, r, r.Method == http.MethodPost || (r.Method == http.MethodGet && sse),
		"POST only (GET is accepted with Accept: text/event-stream and ?request=)")
	if !ok {
		return
	}
	defer s.observeLatency(time.Now())
	if s.refuseDraining(w) {
		return
	}
	if sse {
		s.exploreSSE(w, r, tid)
		return
	}
	raw, err := readBody(r)
	if err != nil {
		err = fmt.Errorf("read error: %v", err)
	}
	items := []exploreItem{{raw: raw, err: err}}
	if s.serveItems(w, r, tid, internal, true, items) {
		if items[0].tid != tid {
			w.Header().Set("X-Trace-Id", items[0].tid)
		}
		s.writeResponse(w, items[0].resp)
	}
}

// exploreSSE is the streaming form of a single request: a thin local
// wrapper over runExploration under the same admission and deadline rules
// as serveItems. Streams are never forwarded to a peer, since progress
// events do not proxy usefully.
func (s *Server) exploreSSE(w http.ResponseWriter, r *http.Request, tid string) {
	var raw []byte
	var err error
	if r.Method == http.MethodGet {
		// EventSource clients cannot POST; they pass the request JSON in the
		// query string instead.
		q := r.URL.Query().Get("request")
		if q == "" {
			s.obs.Counter("server.bad_requests").Add(1)
			s.writeError(w, http.StatusBadRequest, "GET requires the request JSON in ?request=")
			return
		}
		raw = []byte(q)
	} else if raw, err = readBody(r); err != nil {
		err = fmt.Errorf("read error: %v", err)
	}
	// Streams are never hot, so a stream parses its own bytes and leaves
	// no alias.
	it := &exploreItem{raw: raw, tid: tid}
	if err == nil {
		it.p, it.spec, err = parseExplore(raw, s.obs)
	}
	if err != nil {
		s.obs.Counter("server.bad_requests").Add(1)
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, done, ok := s.admitRequest(w, r, true)
	if !ok {
		return
	}
	defer done()
	ctx, cancel := s.itemContext(ctx, it.p)
	defer cancel()
	prog := s.registerLive(tid, it.p)
	defer s.unregisterLive(tid)
	s.serveSSE(ctx, w, it, prog)
}

// --- the request core ---

// exploreItem is one exploration of a request: a single POST carries one
// item, a batch up to maxBatchItems.
type exploreItem struct {
	raw    []byte         // the item's request JSON
	err    error          // the body could not be read or parsed: the item is a 400
	p      *parsedRequest // from the Aliases keyspace: shared, read only
	spec   *spec.Spec     // spec mode: decoded when this item's own parse ran, else nil
	peer   string         // serving cluster node, when routed here by a peer
	remote bool           // forwarded to a peer by planBatch
	tid    string         // the item's trace id
	resp   *servedResponse
}

// serveItems answers every item of one request. It resolves each item's
// parse (resolve); in cluster mode it groups the items owned by live peers
// by owner (planBatch) and forwards each group, runs the rest on the
// session pool, and recomputes locally any item a peer failed to answer.
//
// An external request with anything to explore holds one admission slot
// for its whole life, the time its items spend on peers included. An
// internal request is never admitted: its origin's slot accounts for it,
// and admitting it too could deadlock two fronts whose slots wait on each
// other's forwarded groups.
//
// whole marks a request that is one exploration (a single POST, or a
// peer's group of one): its item, and the group it may be forwarded as,
// take the request's trace id. Otherwise item i is <tid>.<i> and the
// group sent to a peer is <tid>.p<seq>, under which its items stay.
//
// serveItems returns false when the request could not be admitted; the
// 429 is then written. Otherwise every item has its answer.
func (s *Server) serveItems(w http.ResponseWriter, r *http.Request, tid string, internal, whole bool, items []exploreItem) bool {
	anyValid := false
	for i := range items {
		it := &items[i]
		it.tid = tid
		if !whole {
			it.tid = fmt.Sprintf("%s.%d", tid, i)
		}
		if it.err == nil {
			it.err = s.resolve(it)
		}
		if it.err != nil {
			s.obs.Counter("server.bad_requests").Add(1)
			it.resp = errResponse(http.StatusBadRequest, it.err)
			continue
		}
		if internal {
			it.peer = s.cluster.router.Self()
		}
		anyValid = true
	}
	ctx, done, ok := s.admitRequest(w, r, anyValid && !internal)
	if !ok {
		return false
	}
	defer done()

	var groups []batchGroup
	if s.cluster != nil && !internal {
		groups = s.planBatch(items)
	}
	local := unanswered(items, false)
	var wg sync.WaitGroup
	for seq, g := range groups {
		gtid := tid
		if !whole {
			gtid = fmt.Sprintf("%s.p%d", tid, seq+1)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.forwardBatchGroup(ctx, g, gtid, items)
		}()
	}
	s.runItems(ctx, items, local)
	wg.Wait()
	s.runItems(ctx, items, unanswered(items, true))

	// ForEach stops launching items once ctx is done (client disconnect or
	// server drain mid-request), leaving the unlaunched tail unanswered.
	// Give those items a defined 503.
	for i := range items {
		if items[i].resp == nil {
			items[i].resp = errResponse(http.StatusServiceUnavailable, errors.New("canceled before start"))
		}
	}
	return true
}

// resolve sets it.p through the Aliases keyspace, keyed by the digest of
// the item's raw bytes: bytes seen before skip the parse, and new bytes are
// parsed, with only a successful parse stored (a 400 is uncacheable, so it
// never enters). The spec a parse decodes stays with this item (it.spec),
// so an exploration it goes on to run need not decode it again.
func (s *Server) resolve(it *exploreItem) error {
	var err error
	v := s.memo.Do(memo.Aliases, memo.NewKey(it.raw, 0), func() (any, bool) {
		var p *parsedRequest
		p, it.spec, err = parseExplore(it.raw, s.obs)
		return p, err == nil
	})
	if err != nil {
		return err
	}
	it.p = v.(*parsedRequest)
	return nil
}

// admitRequest derives a request's context, canceled by client disconnect
// and by Abort, and with admit set takes one exploration slot. done
// releases both. ok=false means the queue is full and the 429 is written.
func (s *Server) admitRequest(w http.ResponseWriter, r *http.Request, admit bool) (ctx context.Context, done func(), ok bool) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.baseCtx, cancel)
	release := func() {}
	if admit {
		if release, ok = s.admit(ctx); !ok {
			stop()
			cancel()
			s.obs.Counter("server.rejected_overload").Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
			s.writeError(w, http.StatusTooManyRequests, "exploration queue is full")
			return nil, nil, false
		}
	}
	return ctx, func() { release(); stop(); cancel() }, true
}

// unanswered lists the items still without an answer among those that
// were forwarded to a peer (remote) or kept local.
func unanswered(items []exploreItem, remote bool) []int {
	var idxs []int
	for i := range items {
		if items[i].resp == nil && items[i].remote == remote {
			idxs = append(idxs, i)
		}
	}
	return idxs
}

// runItems explores the listed items on the session pool.
func (s *Server) runItems(ctx context.Context, items []exploreItem, idxs []int) {
	if len(idxs) == 0 {
		return
	}
	s.workers.ForEach(ctx, len(idxs), func(j int) {
		it := &items[idxs[j]]
		ictx, cancel := s.itemContext(ctx, it.p)
		defer cancel()
		prog := s.registerLive(it.tid, it.p)
		defer s.unregisterLive(it.tid)
		it.resp = s.runExploration(ictx, it, prog)
	})
}

// itemContext applies the item's deadline, which starts when the item
// starts exploring, not when its request joined the queue.
func (s *Server) itemContext(ctx context.Context, p *parsedRequest) (context.Context, context.CancelFunc) {
	if d := s.effectiveTimeout(p.timeoutMS); d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
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

// handleExploreBatch serves POST /v1/explore/batch as a request of N items
// through serveItems and writes the envelope. Per-item failures (bad item
// JSON, infeasible spec, expired per-item deadline) land in that item's
// result; the envelope itself fails only on malformed batch JSON or
// overload. The envelope is never cached — each item deduplicates
// individually, so a batch overlapping earlier traffic gets per-item cache
// hits.
func (s *Server) handleExploreBatch(w http.ResponseWriter, r *http.Request) {
	tid, internal, ok := s.beginRequest(w, r, r.Method == http.MethodPost, "POST only")
	if !ok {
		return
	}
	s.obs.Counter("server.batch_requests").Add(1)
	defer s.observeLatency(time.Now())
	if s.refuseDraining(w) {
		return
	}
	raw, err := readBody(r)
	rawItems, err := parseBatch(raw, err, s.obs)
	if err != nil {
		s.obs.Counter("server.bad_requests").Add(1)
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	n := len(rawItems)
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
	items := make([]exploreItem, n)
	for i, raw := range rawItems {
		items[i] = exploreItem{raw: raw}
	}
	if !s.serveItems(w, r, tid, internal, internal && n == 1, items) {
		return
	}
	s.obs.Counter("server.batch_items").Add(int64(n))

	env := batchResponse{Items: make([]batchItem, n)}
	for i, it := range items {
		env.Items[i] = batchItem{
			Index:    i,
			Status:   it.resp.status,
			Degraded: it.resp.degraded,
			TraceID:  it.tid,
			Body:     json.RawMessage(bytes.TrimRight(it.resp.body, "\n")),
		}
	}
	body, err := json.Marshal(env)
	if err != nil {
		s.writeResponse(w, errResponse(http.StatusInternalServerError, err))
		return
	}
	s.writeResponse(w, &servedResponse{status: http.StatusOK, body: append(body, '\n')})
}

// splitBatch splits a batch body in the canonical subset of JSON (package
// canonjson) into the bytes of its items, exactly as json.RawMessage
// would hold them. It reports false for any other body.
func splitBatch(raw []byte) ([][]byte, bool) {
	r := canonjson.NewReader(raw)
	var items [][]byte
	var seen uint64
	r.Open('{')
	for n := 0; r.More('}', n); n++ {
		if r.Key(batchKeys, &seen) == "items" {
			r.Open('[')
			for m := 0; r.More(']', m); m++ {
				items = append(items, r.Value())
			}
		}
	}
	return items, r.End()
}

// parseBatch returns the raw items of a batch body, split in one pass when
// the body is in the canonical subset (splitBatch). Any other body counts
// in o's server.parse_fallbacks and is decoded by encoding/json, which
// words the error of a malformed one. A body whose read failed with
// readErr is replayed to it as the bytes read followed by that error, as
// the decoder would have met them reading the request. Error strings are
// client-facing.
func parseBatch(raw []byte, readErr error, o *obs.Observer) ([][]byte, error) {
	if readErr == nil {
		if items, ok := splitBatch(raw); ok {
			return items, nil
		}
	}
	o.Counter("server.parse_fallbacks").Add(1)
	var body io.Reader = bytes.NewReader(raw)
	if readErr != nil {
		body = io.MultiReader(body, &errReader{readErr})
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var breq batchRequest
	err := dec.Decode(&breq)
	if err == nil && !atEnd(dec) {
		err = errors.New("trailing data after the JSON object")
	}
	if err != nil {
		return nil, fmt.Errorf("invalid batch body: %v", err)
	}
	items := make([][]byte, len(breq.Items))
	for i, raw := range breq.Items {
		items[i] = raw
	}
	return items, nil
}

// errReader is a reader that fails with err.
type errReader struct{ err error }

func (e *errReader) Read([]byte) (int, error) { return 0, e.err }

// runExploration runs one admitted exploration under its telemetry span,
// capturing the span subtree when the flight recorder might want it.
func (s *Server) runExploration(ctx context.Context, it *exploreItem, prog *obs.Progress) *servedResponse {
	start := time.Now()
	sp := s.obs.Start("serve.explore")
	sp.SetStr("trace_id", it.tid)
	if it.peer != "" {
		sp.SetStr("peer", it.peer)
	}
	var capture *obs.Collector
	if s.flight != nil {
		capture = s.obs.CaptureSubtree(sp)
	}
	resp := s.dedup(ctx, it, sp, prog)
	sp.SetInt("status", int64(resp.status))
	sp.End()
	if s.flight != nil {
		s.obs.ReleaseSubtree(sp)
		if e := s.flightEntry(it.tid, it.p, resp, start); e != nil {
			e.Search = prog.Snapshot()
			if capture != nil { // nil without an observer
				e.Spans = capture.Records()
			}
			s.flight.add(e)
		}
	}
	return resp
}

// flightEntry builds the flight-recorder entry of a finished exploration,
// or returns nil when the recorder is off or the exploration neither
// errored, degraded, nor exceeded the slow threshold.
func (s *Server) flightEntry(tid string, p *parsedRequest, resp *servedResponse, start time.Time) *FlightEntry {
	if s.flight == nil {
		return nil
	}
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
		return nil
	}
	return &FlightEntry{
		TraceID:    tid,
		Start:      start,
		Reason:     reason,
		Status:     resp.status,
		DurationMS: float64(dur.Microseconds()) / 1e3,
		Mode:       p.mode,
		Label:      p.label,
		Degraded:   resp.degraded,
	}
}

// dedup answers the request through the Requests keyspace: identical
// in-flight requests share one exploration, identical later requests are
// answered from the session. A compute cut short by its deadline (or by
// Abort) publishes uncacheable, so it is returned only to the request that
// ran it — concurrent duplicates with live deadlines take over and
// recompute rather than inherit a degraded response.
func (s *Server) dedup(ctx context.Context, it *exploreItem, sp *obs.Span, prog *obs.Progress) *servedResponse {
	hit := true
	prog.SetStage("dedup")
	v := s.memo.Do(memo.Requests, it.p.key, func() (any, bool) {
		hit = false
		resp := s.explore(ctx, it, sp, prog)
		cacheable := resp.status == http.StatusOK && ctx.Err() == nil
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
func (s *Server) explore(ctx context.Context, it *exploreItem, sp *obs.Span, prog *obs.Progress) *servedResponse {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.holdExplore != nil {
		s.holdExplore(ctx)
	}

	ep := core.DefaultEvalParams()
	ep.Obs = s.obs
	ep.Span = sp
	ep.NoCache = s.memo == nil
	ep.Workers = s.workers
	ep.Progress = prog

	p := it.p
	env := &exploreResponse{}
	if p.mode == "demo" {
		res, err := core.RunAllContext(ctx, p.demo, ep)
		if err != nil {
			return errResponse(http.StatusUnprocessableEntity, err)
		}
		wire, err := res.Wire()
		if err != nil {
			return errResponse(http.StatusInternalServerError, err)
		}
		env.Results = wire
	} else {
		spc := it.spec
		if spc == nil {
			// The item's parse came from the Aliases keyspace and its
			// response from no tier: decode the spec again.
			var err error
			if _, spc, err = parseExplore(it.raw, s.obs); err != nil {
				return errResponse(http.StatusBadRequest, err)
			}
		}
		v, err := core.EvaluateContext(ctx, spc, p.budget, spc.Name, ep.WithSpecKnobs(p.knobs))
		if err != nil {
			return errResponse(http.StatusUnprocessableEntity, err)
		}
		env.Variant = v.Wire()
	}
	body, err := json.Marshal(env)
	if err != nil {
		return errResponse(http.StatusInternalServerError, err)
	}
	// Degraded mirrors the cacheability rule: a 200 computed under a dead
	// context is the anytime best-effort answer, not the full exploration.
	return &servedResponse{status: http.StatusOK, body: append(body, '\n'), degraded: ctx.Err() != nil}
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

// metricsResponse is the server's one read of every metric it serves
// (Server.metrics): /metrics.json is its JSON encoding and /metrics its
// Prometheus rendering (writeProm), so the two surfaces cannot disagree.
type metricsResponse struct {
	Server  serverMetrics         `json:"server"`
	Obs     obs.Snapshot          `json:"obs"`
	Memo    map[string]memo.Stats `json:"memo,omitempty"`
	Disk    *memo.DiskStats       `json:"disk,omitempty"`
	Cluster *clusterMetrics       `json:"cluster,omitempty"`
	Pool    poolMetrics           `json:"pool"`
	Runtime obs.RuntimeStats      `json:"runtime"`
}

type serverMetrics struct {
	Inflight     int64 `json:"inflight"`
	Queued       int64 `json:"queued"`
	Requests     int64 `json:"requests_total"`
	OK           int64 `json:"responses_2xx"`
	Redirects    int64 `json:"responses_3xx"`
	ClientErrors int64 `json:"responses_4xx"`
	ServerErrors int64 `json:"responses_5xx"`
	// The latency fields read the lifetime request histogram behind
	// dtse_request_duration_seconds (LatencyHist in full).
	LatencyCount int64                 `json:"latency_count"`
	LatencyP50US int64                 `json:"latency_p50_us"`
	LatencyP99US int64                 `json:"latency_p99_us"`
	LatencyHist  obs.HistogramSnapshot `json:"latency_hist"`
	Flights      int                   `json:"flight_entries"`
	Recorded     *int64                `json:"flight_recorded_total,omitempty"` // nil: recorder disabled
	Open         int                   `json:"open_explorations"`
	Draining     bool                  `json:"draining"`
}

type clusterMetrics struct {
	Peers      int `json:"peers"`
	PeersAlive int `json:"peers_alive"`
	Members    int `json:"members"`
}

type poolMetrics struct {
	Workers    int   `json:"workers"`
	Spawns     int64 `json:"spawns"`
	InlineRuns int64 `json:"inline_runs"`
}

// metrics reads every metric the server serves, once. The observer
// snapshot drops its memo.* and pool.* counters and gauges: the session
// cache and the pool, read live here, own those names; the observer's are
// the last demo run's copies, of its run cache and of the pool.
func (s *Server) metrics() *metricsResponse {
	lat := s.reqHist.Snapshot()
	m := &metricsResponse{
		Server: serverMetrics{
			Inflight:     s.inflight.Load(),
			Queued:       s.queued.Load(),
			Requests:     s.requests.Load(),
			OK:           s.responses[2].Load(),
			Redirects:    s.responses[3].Load(),
			ClientErrors: s.responses[4].Load(),
			ServerErrors: s.responses[5].Load(),
			LatencyCount: lat.Count,
			LatencyP50US: lat.P50US,
			LatencyP99US: lat.P99US,
			LatencyHist:  lat,
			Open:         s.openExplorations(),
			Draining:     s.draining.Load(),
		},
		Obs:     s.obs.Snapshot(),
		Pool:    poolMetrics{Workers: s.workers.Workers()},
		Runtime: obs.ReadRuntime(),
	}
	for _, named := range []map[string]int64{m.Obs.Counters, m.Obs.Gauges} {
		for name := range named {
			if strings.HasPrefix(name, "memo.") || strings.HasPrefix(name, "pool.") {
				delete(named, name)
			}
		}
	}
	m.Pool.Spawns, m.Pool.InlineRuns = s.workers.Stats()
	if s.flight != nil {
		total, held := s.flight.counts()
		m.Server.Recorded, m.Server.Flights = &total, held
	}
	if cs := s.cluster; cs != nil {
		m.Cluster = &clusterMetrics{
			Peers:      len(cs.router.Peers()),
			PeersAlive: len(cs.router.AlivePeers()),
			Members:    len(cs.router.Members()),
		}
	}
	if s.memo != nil {
		m.Memo = make(map[string]memo.Stats)
		for _, sp := range sessionSpaces {
			m.Memo[sp.String()] = s.memo.Stats(sp)
		}
	}
	if s.opts.Disk != nil {
		ds := s.opts.Disk.Stats()
		m.Disk = &ds
	}
	return m
}
