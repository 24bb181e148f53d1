// Command dtsed is the exploration-as-a-service daemon: a long-running
// HTTP server that owns one exploration session (shared response cache,
// shared bounded worker pool, shared telemetry) and answers exploration
// requests against it.
//
// Usage:
//
//	dtsed [-addr 127.0.0.1:8321] [-concurrency N] [-queue N]
//	      [-timeout 0] [-max-timeout 0] [-workers N] [-drain 5s]
//	      [-trace out.jsonl] [-cache on|off] [-cache-dir DIR]
//	      [-cache-bytes N] [-flight N] [-slow 0]
//	      [-self URL -peers URL,URL,...]
//	      [-forward-timeout 2s] [-gossip 1s] [-suspicion 10s]
//
// With -self, this node's advertised base URL (which requires at least one
// URL in -peers), the daemon joins a multi-node ring: any node accepts any
// request, routes it to the consistent-hash owner of its canonical
// fingerprint (so each node's response cache stays hot for its shard),
// fails over to the next ring node when the owner errors, computes the
// request itself when no peer answers within -forward-timeout, and ejects
// unhealthy peers. Every search runs whole on the node that serves it.
// Responses are byte-identical at any node count.
//
// Membership is dynamic: -peers are the members the daemon starts from, and
// any one reachable member is enough — the first gossip round returns its
// digest, which supplies the rest of the member set. Every -gossip interval
// the daemon exchanges membership digests with its peers; an unreachable
// member is suspected and removed after -suspicion, while incarnation
// numbers let a live member refute stale claims about itself. On
// any ring change the node streams the cached records it no longer owns to
// their new owner (/v1/internal/handoff), so rebalanced shards start hot. On
// shutdown the daemon announces its departure and hands its shard over
// before draining.
//
// With -cache-dir the daemon keeps a disk-backed second cache tier: every
// completed response is appended (write-behind, checksummed) to
// DIR/cache.log and survives restarts — a fresh process answers previously
// seen requests byte-identically from disk. -cache-bytes caps each of the
// two in-memory keyspaces, responses and request aliases, evicting cold
// entries CLOCK-wise (the aliases are capped at 8 MiB even without it);
// the disk tier
// still holds everything appended. The disk tier belongs to the session
// cache, so -cache off with -cache-dir is a usage error.
//
// Endpoints:
//
//	POST /v1/explore  {"spec": {...}, "budget": N, "timeout_ms": N,
//	                   "params": {...}}  or  {"demo": {"size": N, ...}};
//	                  with Accept: text/event-stream the exploration is
//	                  streamed as SSE progress events (GET with ?request=
//	                  serves EventSource clients)
//	POST /v1/explore/batch  {"items": [<explore request>, ...]}: up to 64
//	                  explore requests under one admission slot, sharing the
//	                  session cache and worker pool; the response carries a
//	                  per-item status/degraded/trace-id/body array
//	GET  /healthz     liveness (503 while draining)
//	GET  /metrics     Prometheus text exposition (request/stage latency
//	                  histograms, counters, per-keyspace cache stats)
//	GET  /metrics.json          the same metrics snapshot as JSON
//	GET  /debug/explorations    in-flight requests: stage, nodes, bound gap
//	GET  /debug/flightrecorder  last -flight slow/degraded/errored requests
//	                  with their span trees and search positions
//
// Explorations are anytime: a request whose deadline (-timeout, or its own
// timeout_ms) expires gets its best-effort organization, flagged
// optimal=false / degraded=true, instead of an error. Identical requests
// are deduplicated through the session cache — concurrent duplicates share
// one exploration — and degraded responses are never cached.
//
// On SIGINT/SIGTERM the daemon drains: health turns 503, new explorations
// are refused, and in-flight ones run to completion. After -drain the
// remaining explorations are degraded to their anytime results and the
// responses still complete.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/memo"
	"repro/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dtsed", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8321", "listen address")
	concurrency := fs.Int("concurrency", runtime.GOMAXPROCS(0), "explorations running at once")
	queue := fs.Int("queue", 0, "requests waiting for a slot before 429 (0 = 2x concurrency)")
	timeout := fs.Duration("timeout", 0, "default per-request exploration deadline (0 = none)")
	maxTimeout := fs.Duration("max-timeout", 0, "cap on request-supplied deadlines (0 = none)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "worker pool width shared by all explorations")
	drain := fs.Duration("drain", 5*time.Second, "shutdown grace before in-flight explorations are degraded")
	traceOut := fs.String("trace", "", "write the exploration telemetry (JSONL spans + counters) to this file")
	cache := fs.String("cache", "on", "response cache and each demo run's cache: on or off (responses are identical either way)")
	cacheDir := fs.String("cache-dir", "", "persist completed responses to an append-only log in this directory (disk cache tier, survives restarts)")
	cacheBytes := fs.Int64("cache-bytes", 0, "byte cap on each session-cache keyspace, responses and request aliases, evicting beyond it (0 = unbounded responses, aliases 8 MiB)")
	flight := fs.Int("flight", 64, "flight-recorder capacity: last N slow/degraded/errored requests (-1 disables)")
	slow := fs.Duration("slow", 0, "flight-record healthy requests at least this slow (0 = off)")
	self := fs.String("self", "", "join a cluster as this advertised base URL, e.g. http://10.0.0.1:8321 (requires -peers)")
	peers := fs.String("peers", "", "comma-separated member base URLs to start from (any reachable one is enough; gossip supplies the rest)")
	forwardTimeout := fs.Duration("forward-timeout", 0, "how long a forwarded request waits before it runs locally (0 = default 2s)")
	gossip := fs.Duration("gossip", 0, "membership gossip/probe interval (0 = default 1s)")
	suspicion := fs.Duration("suspicion", 0, "how long an unreachable member stays suspect before removal (0 = default 10s)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "dtsed: unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return 2
	}
	if *cache != "on" && *cache != "off" {
		fmt.Fprintf(stderr, "dtsed: -cache %q invalid (want on or off)\n", *cache)
		fs.Usage()
		return 2
	}
	if *cache == "off" && *cacheDir != "" {
		fmt.Fprintln(stderr, "dtsed: -cache-dir requires -cache on (the disk tier is a tier of the session cache)")
		fs.Usage()
		return 2
	}
	if *cacheBytes < 0 {
		fmt.Fprintln(stderr, "dtsed: -cache-bytes must be >= 0")
		fs.Usage()
		return 2
	}
	if *concurrency < 1 || *workers < 1 {
		fmt.Fprintln(stderr, "dtsed: -concurrency and -workers must be >= 1")
		fs.Usage()
		return 2
	}
	if *timeout < 0 || *maxTimeout < 0 || *drain < 0 || *queue < 0 || *slow < 0 {
		fmt.Fprintln(stderr, "dtsed: durations and -queue must be >= 0")
		fs.Usage()
		return 2
	}
	if *gossip < 0 || *suspicion < 0 || *forwardTimeout < 0 {
		fmt.Fprintln(stderr, "dtsed: -gossip, -suspicion and -forward-timeout must be >= 0")
		fs.Usage()
		return 2
	}
	splitURLs := func(csv string) []string {
		var out []string
		for _, p := range strings.Split(csv, ",") {
			if p = strings.TrimSpace(p); p != "" {
				out = append(out, p)
			}
		}
		return out
	}
	peerList := splitURLs(*peers)
	switch {
	case *self != "" && len(peerList) == 0:
		fmt.Fprintln(stderr, "dtsed: -self requires at least one URL in -peers")
		fs.Usage()
		return 2
	case *self == "" && *peers != "":
		fmt.Fprintln(stderr, "dtsed: -peers requires -self")
		fs.Usage()
		return 2
	}

	var sinks []obs.Sink
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "dtsed:", err)
			return 1
		}
		traceFile = f
		sinks = append(sinks, obs.NewJSONL(f))
	}
	observer := obs.New(sinks...) // always on: /metrics serves its snapshot

	var disk *memo.DiskTier
	if *cacheDir != "" {
		d, err := memo.OpenDiskTier(*cacheDir)
		if err != nil {
			fmt.Fprintln(stderr, "dtsed:", err)
			return 1
		}
		disk = d
		st := d.Stats()
		fmt.Fprintf(stdout, "dtsed: disk cache %s (%d record(s) recovered)\n", d.Path(), st.Records)
	}

	srv := dtse.NewServer(dtse.ServeOptions{
		MaxConcurrent:  *concurrency,
		MaxQueue:       *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Workers:        *workers,
		Obs:            observer,
		NoCache:        *cache == "off",
		CacheBytes:     *cacheBytes,
		Disk:           disk,
		FlightRecorder: *flight,
		SlowRequest:    *slow,
	})
	if *self != "" {
		if err := srv.JoinCluster(dtse.ClusterOptions{
			Self:             *self,
			Peers:            peerList,
			HedgeDelay:       *forwardTimeout,
			GossipInterval:   *gossip,
			SuspicionTimeout: *suspicion,
		}); err != nil {
			fmt.Fprintln(stderr, "dtsed:", err)
			return 1
		}
		fmt.Fprintf(stdout, "dtsed: cluster mode, self %s, %d peer(s)\n", *self, len(peerList))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "dtsed:", err)
		return 1
	}
	fmt.Fprintf(stdout, "dtsed: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "dtsed:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful shutdown. In cluster mode, first announce the departure and
	// hand our shard's cached records to their new owners — peers re-route
	// while we are still serving. Then stop routing (healthz 503, new
	// explorations refused), wait up to -drain for in-flight explorations,
	// and degrade the stragglers to their anytime results — every accepted
	// request still gets a complete response.
	if *self != "" {
		leaveCtx, cancel := context.WithTimeout(context.Background(), *drain)
		if err := srv.LeaveCluster(leaveCtx); err != nil {
			fmt.Fprintln(stderr, "dtsed: leave:", err)
		} else {
			fmt.Fprintln(stderr, "dtsed: announced departure, shard handed off")
		}
		cancel()
	}
	srv.BeginDrain()
	fmt.Fprintf(stderr, "dtsed: draining (%d exploration(s) in flight)\n", srv.Inflight())
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	err = httpSrv.Shutdown(shutCtx)
	cancel()
	if err != nil {
		fmt.Fprintln(stderr, "dtsed: drain deadline hit, degrading in-flight explorations")
		srv.Abort()
		// Anytime semantics bound this second wait: every exploration
		// returns promptly once its context dies.
		if err := httpSrv.Shutdown(context.Background()); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "dtsed:", err)
		}
	}

	// Flush the write-behind queue before exiting: everything computed by a
	// cleanly drained daemon is durable for the next start.
	if err := disk.Close(); err != nil {
		fmt.Fprintln(stderr, "dtsed: disk cache close:", err)
	}
	if err := observer.Flush(); err != nil {
		fmt.Fprintln(stderr, "dtsed: telemetry flush:", err)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fmt.Fprintln(stderr, "dtsed:", err)
			return 1
		}
		fmt.Fprintf(stderr, "(telemetry trace written to %s)\n", *traceOut)
	}
	fmt.Fprintln(stdout, "dtsed: shut down cleanly")
	return 0
}
