package obs

import "runtime"

// RuntimeStats is a point-in-time snapshot of the Go runtime's memory and
// GC state, read at scrape time by the serving layer and exposed as the
// dtse_go_* Prometheus families and the /metrics.json runtime object.
// Allocation counters paired with the request counters give
// allocs-per-request rates without a profiler attached; the pause gauges
// surface GC pressure on the serving path.
type RuntimeStats struct {
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`  // live heap bytes
	HeapSysBytes    uint64 `json:"heap_sys_bytes"`    // heap bytes obtained from the OS
	TotalAllocBytes uint64 `json:"alloc_bytes"`       // cumulative bytes allocated (monotone)
	Mallocs         uint64 `json:"mallocs"`           // cumulative heap objects allocated (monotone)
	GCCycles        uint32 `json:"gc_cycles"`         // completed GC cycles
	LastPauseNS     uint64 `json:"gc_last_pause_ns"`  // most recent stop-the-world pause
	PauseTotalNS    uint64 `json:"gc_pause_total_ns"` // cumulative stop-the-world pause time
	Goroutines      int    `json:"goroutines"`
}

// ReadRuntime snapshots the runtime state. runtime.ReadMemStats stops the
// world briefly, so this belongs on scrape paths, not in hot loops.
func ReadRuntime() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	last := uint64(0)
	if ms.NumGC > 0 {
		last = ms.PauseNs[(ms.NumGC+255)%256]
	}
	return RuntimeStats{
		HeapAllocBytes:  ms.HeapAlloc,
		HeapSysBytes:    ms.HeapSys,
		TotalAllocBytes: ms.TotalAlloc,
		Mallocs:         ms.Mallocs,
		GCCycles:        ms.NumGC,
		LastPauseNS:     last,
		PauseTotalNS:    ms.PauseTotalNs,
		Goroutines:      runtime.NumGoroutine(),
	}
}
