package main

// The -cluster sweep measures what the multi-node serving layer buys on one
// machine: three in-process dtsed nodes joined into a consistent-hash ring,
// each with a deliberately small session-cache cap, against a single node
// with the same cap. The workload cycles a fixed set of distinct spec
// requests, so the single node's bounded cache thrashes (cyclic access over
// a set larger than capacity defeats CLOCK eviction) while the ring
// partitions the same set into per-node shards that fit — the cache-capacity
// form of scale-out, which is the one an in-process sweep on a small host
// can demonstrate honestly (the nodes share the same CPUs, so compute
// parallelism is not measurable here; cache capacity is).
//
// The third leg kills one node's listener mid-run and keeps driving the
// survivors: health-gated ejection and ring-walk failover must absorb the
// loss with zero failed requests.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	dtse "repro"
	"repro/internal/cluster"
	"repro/internal/memo"
)

// ClusterPoint is one leg of the -cluster serving sweep.
type ClusterPoint struct {
	Name     string `json:"name"`
	Nodes    int    `json:"nodes"`
	Requests int    `json:"requests"`
	// Failed counts non-200 responses and transport errors; the acceptance
	// bar for every leg — the peer-kill leg included — is zero.
	Failed     int     `json:"failed_requests"`
	PeerKilled bool    `json:"peer_killed,omitempty"`
	WallMS     int64   `json:"wall_ms"`
	ReqPerSec  float64 `json:"req_per_sec"`
	// SpeedupVsSingle is this leg's req/s over the single-node leg's.
	SpeedupVsSingle float64 `json:"speedup_vs_single,omitempty"`
}

const (
	// clusterSpecs distinct requests cycled clusterRounds times by
	// clusterClients concurrent clients.
	clusterSpecs   = 30
	clusterRounds  = 8
	clusterClients = 4
	// clusterBatchItems is the /v1/explore/batch size the drivers post.
	clusterBatchItems = 8
)

// clusterWorkload builds the fixed spec-request set and each request's
// ring fingerprint, the FNV-1a of its canonical spec (WriteSpecJSON writes
// the canonical form the server derives). Deterministic seeds: every leg
// sees byte-identical bodies.
func clusterWorkload() ([]string, []uint64, error) {
	bodies := make([]string, 0, clusterSpecs)
	routes := make([]uint64, 0, clusterSpecs)
	for seed := 0; seed < clusterSpecs; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		b := dtse.NewSpec(fmt.Sprintf("cw%d", seed))
		// Enough groups that the assignment search is real work: a cache
		// miss must cost visibly more than a cached answer for capacity
		// sharding to show up in throughput.
		names := make([]string, 12+rng.Intn(3))
		for i := range names {
			names[i] = fmt.Sprintf("g%d", i)
			b.Group(names[i], int64(128<<uint(rng.Intn(4))), 4+2*rng.Intn(6))
		}
		b.Loop("body", 2048+uint64(rng.Intn(2048)))
		for _, name := range names {
			b.Read(name, float64(1+rng.Intn(2)))
			if rng.Intn(2) == 0 {
				b.Write(name, 1)
			}
		}
		s, err := b.Build()
		if err != nil {
			return nil, nil, fmt.Errorf("workload spec %d: %w", seed, err)
		}
		var buf strings.Builder
		if err := dtse.WriteSpecJSON(s, &buf); err != nil {
			return nil, nil, err
		}
		routes = append(routes, memo.Fingerprint64(buf.String()))
		// The cycle budget is generous so that every spec is feasible: an
		// infeasible budget answers 422, which is never cached, and the
		// sweep would measure recompute on every leg.
		bodies = append(bodies, fmt.Sprintf(`{"spec": %s, "budget": 20000000}`, buf.String()))
	}
	return bodies, routes, nil
}

// clusterCacheBytes derives the per-node cap on each session-cache
// keyspace from the measured working set: every request's accounted bytes,
// read off one node whose cap nothing reaches (an unbounded keyspace keeps
// no byte accounting), summed over the whole set and over the largest
// shard any of rings gives one member. The cap sits a quarter of the way
// from the largest shard to the whole set, so every ring shard fits while
// the whole set, accessed cyclically (the pattern CLOCK eviction cannot
// hold), overflows one node by a wide margin: at the halfway point one
// node still hit on 43-46 % of requests. That window is the experiment:
// the ring turns one thrashing cache into three fitting ones.
func clusterCacheBytes(bodies []string, routes []uint64, rings [][]string) (int64, error) {
	srv := dtse.NewServer(dtse.ServeOptions{MaxConcurrent: 2, CacheBytes: 1 << 40})
	hs := httptest.NewServer(srv.Handler())
	defer func() { hs.Close(); srv.Abort() }()
	sizes := make([]int64, len(bodies))
	var whole int64
	for i, body := range bodies {
		resp, err := http.Post(hs.URL+"/v1/explore", "application/json", strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("sizing request %d: status %d", i, resp.StatusCode)
		}
		held, err := requestStats(hs.URL)
		if err != nil {
			return 0, err
		}
		sizes[i], whole = held.BytesHeld-whole, held.BytesHeld
	}
	var shard int64
	for _, members := range rings {
		ring := cluster.NewRing(members)
		owned := map[string]int64{}
		for i, key := range routes {
			owned[ring.Owner(key)] += sizes[i]
		}
		for _, b := range owned {
			shard = max(shard, b)
		}
	}
	if whole-shard < 2 {
		return 0, fmt.Errorf("the largest ring shard (%d B) does not fit under the whole working set (%d B): no cache cap lets one node thrash while every shard fits", shard, whole)
	}
	return shard + (whole-shard+3)/4, nil
}

// clusterNodes serves one node on each listener, capped at cacheBytes
// per keyspace, and for more than one node joins them into one ring.
// Returns a stop function (stop(i) kills node i's listener and aborts it)
// and one that stops them all.
func clusterNodes(https []*httptest.Server, urls []string, cacheBytes int64) (func(i int), func(), error) {
	n := len(https)
	servers := make([]*dtse.Server, n)
	for i := 0; i < n; i++ {
		servers[i] = dtse.NewServer(dtse.ServeOptions{
			MaxConcurrent: 2,
			MaxQueue:      256,
			CacheBytes:    cacheBytes,
		})
		https[i].Config.Handler = servers[i].Handler()
		https[i].Start()
	}
	if n > 1 {
		for i := 0; i < n; i++ {
			var peers []string
			for j := 0; j < n; j++ {
				if j != i {
					peers = append(peers, urls[j])
				}
			}
			if err := servers[i].JoinCluster(dtse.ClusterOptions{Self: urls[i], Peers: peers}); err != nil {
				return nil, nil, err
			}
		}
	}
	stopped := make([]bool, n)
	stop := func(i int) {
		if !stopped[i] {
			stopped[i] = true
			https[i].CloseClientConnections()
			https[i].Close()
			servers[i].Abort()
		}
	}
	closeAll := func() {
		for i := 0; i < n; i++ {
			stop(i)
		}
	}
	return stop, closeAll, nil
}

// driveCluster posts the workload as /v1/explore/batch requests of
// clusterBatchItems consecutive items, round-robin across fronts with
// clusterClients concurrent clients; kill, when non-nil, runs once halfway
// through. Returns per-item failures and wall time. Batches are the shape
// the routing layer is built for: the front groups items by ring owner and
// forwards one sub-batch per peer, so sharding costs one hop per group
// rather than one per item.
func driveCluster(fronts []string, bodies []string, kill func()) (int, time.Duration, error) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clusterClients}}
	var batches []string
	for at := 0; at < clusterRounds*len(bodies); at += clusterBatchItems {
		items := make([]string, 0, clusterBatchItems)
		for j := 0; j < clusterBatchItems; j++ {
			items = append(items, bodies[(at+j)%len(bodies)])
		}
		batches = append(batches, `{"items": [`+strings.Join(items, ", ")+`]}`)
	}
	var next, failed atomic.Int64
	var killOnce sync.Once
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clusterClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batches) {
					return
				}
				if kill != nil && i == len(batches)/2 {
					killOnce.Do(kill)
				}
				front := fronts[i%len(fronts)]
				resp, err := client.Post(front+"/v1/explore/batch", "application/json", strings.NewReader(batches[i]))
				if err != nil {
					failed.Add(clusterBatchItems)
					continue
				}
				var env struct {
					Items []struct {
						Status int `json:"status"`
					} `json:"items"`
				}
				err = json.NewDecoder(resp.Body).Decode(&env)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || len(env.Items) != clusterBatchItems {
					failed.Add(clusterBatchItems)
					continue
				}
				for _, it := range env.Items {
					if it.Status != http.StatusOK {
						failed.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	return int(failed.Load()), time.Since(start), nil
}

// cacheStats is one node's Requests-keyspace counters, read off
// /metrics.json.
type cacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int64
	BytesHeld               int64
}

// requestStats reads the node at url's Requests-keyspace counters.
func requestStats(url string) (cacheStats, error) {
	resp, err := http.Get(url + "/metrics.json")
	if err != nil {
		return cacheStats{}, err
	}
	defer resp.Body.Close()
	var m struct {
		Memo map[string]cacheStats `json:"memo"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return cacheStats{}, err
	}
	return m.Memo["requests"], nil
}

// requestCacheLine reports a node's Requests-keyspace behaviour after a
// leg — the evidence that the single node thrashed while the shards fit.
func requestCacheLine(url string) string {
	r, err := requestStats(url)
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("requests cache: %d hits, %d misses, %d evictions, %d entries (%d bytes held)",
		r.Hits, r.Misses, r.Evictions, r.Entries, r.BytesHeld)
}

// clusterSweep runs the three legs and computes speedups against the
// single-node leg. Every leg's listeners open first, so the cache cap is
// derived from the rings the legs will run on.
func clusterSweep(stderr io.Writer) ([]ClusterPoint, error) {
	bodies, routes, err := clusterWorkload()
	if err != nil {
		return nil, err
	}
	total := clusterRounds * len(bodies)

	type leg struct {
		name  string
		nodes int
		kill  bool
		https []*httptest.Server
		urls  []string
	}
	legs := []leg{
		{name: "single", nodes: 1},
		{name: "cluster3", nodes: 3},
		{name: "cluster3_peer_kill", nodes: 3, kill: true},
	}
	var rings [][]string
	for i, l := range legs {
		for range l.nodes {
			h := httptest.NewUnstartedServer(nil)
			legs[i].https = append(legs[i].https, h)
			legs[i].urls = append(legs[i].urls, "http://"+h.Listener.Addr().String())
		}
		if l.nodes > 1 {
			rings = append(rings, legs[i].urls)
		}
	}
	defer func() {
		for _, l := range legs {
			for _, h := range l.https {
				h.Close()
			}
		}
	}()
	cacheBytes, err := clusterCacheBytes(bodies, routes, rings)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "per-node cache cap %d bytes per keyspace\n", cacheBytes)
	var pts []ClusterPoint
	for _, l := range legs {
		stop, closeAll, err := clusterNodes(l.https, l.urls, cacheBytes)
		if err != nil {
			return nil, err
		}
		fronts := l.urls
		var kill func()
		if l.kill {
			// Drive the survivors only; the killed node's keys must fail
			// over via ejection without a single lost request.
			fronts = l.urls[:2]
			kill = func() {
				fmt.Fprintln(stderr, "  killing node 2 mid-run...")
				stop(2)
			}
		}
		fmt.Fprintf(stderr, "running cluster leg %s (%d node(s), %d requests)...\n", l.name, l.nodes, total)
		failed, wall, err := driveCluster(fronts, bodies, kill)
		if err == nil {
			for i, u := range fronts {
				fmt.Fprintf(stderr, "  node %d %s\n", i, requestCacheLine(u))
			}
		}
		closeAll()
		if err != nil {
			return nil, err
		}
		pt := ClusterPoint{
			Name: l.name, Nodes: l.nodes, Requests: total, Failed: failed,
			PeerKilled: l.kill, WallMS: wall.Milliseconds(),
			ReqPerSec: float64(total) / wall.Seconds(),
		}
		fmt.Fprintf(stderr, "  %s: %.1f req/s, %d failed, %s\n", l.name, pt.ReqPerSec, failed, wall.Round(time.Millisecond))
		pts = append(pts, pt)
	}
	base := pts[0].ReqPerSec
	for i := range pts[1:] {
		if base > 0 {
			pts[i+1].SpeedupVsSingle = pts[i+1].ReqPerSec / base
		}
	}
	return pts, nil
}
