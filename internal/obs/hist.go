package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-layout latency histogram with power-of-two bucket
// bounds: bucket i counts observations in (2^(i-1), 2^i] microseconds, with
// bucket 0 absorbing everything at or below one microsecond and a final
// overflow bucket for observations beyond the largest finite bound (~34s).
// The fixed layout keeps the hot path a single shift-class computation and
// one atomic add — no locks, no allocation — and makes histograms from
// different processes mergeable bucket-for-bucket, which is what a
// Prometheus scrape needs.
//
// A nil *Histogram is valid and records nothing, the same idiom as the nil
// Counter and Gauge.
type Histogram struct {
	sum     atomic.Int64 // total observed microseconds
	max     atomic.Int64 // largest single observation, microseconds
	buckets [histBuckets + 1]atomic.Int64
}

// histBuckets is the number of finite buckets: bounds 2^0 .. 2^(histBuckets-1)
// microseconds. 36 finite bounds reach 2^35 µs ≈ 34.4 s, past any sane
// request deadline; the +1 slot in the array is the overflow (+Inf) bucket.
const histBuckets = 36

// NewHistogram returns an empty histogram, usable standalone (the server's
// request-latency histogram works even without an Observer).
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a microsecond value to its bucket.
func bucketIndex(us int64) int {
	if us <= 1 {
		return 0
	}
	i := bits.Len64(uint64(us - 1)) // smallest i with 2^i >= us
	if i > histBuckets {
		return histBuckets // overflow bucket
	}
	return i
}

// BucketBoundUS returns the inclusive upper bound of finite bucket i in
// microseconds.
func BucketBoundUS(i int) int64 { return int64(1) << uint(i) }

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.ObserveUS(d.Microseconds())
}

// ObserveUS records one duration given in microseconds. Negative values
// clamp to zero. The write order (sum, then bucket) pairs with Snapshot's
// read order (buckets, then sum) so that a concurrent snapshot never shows
// a bucket population whose durations are missing from the sum.
func (h *Histogram) ObserveUS(us int64) {
	if h == nil {
		return
	}
	if us < 0 {
		us = 0
	}
	h.sum.Add(us)
	for {
		cur := h.max.Load()
		if us <= cur || h.max.CompareAndSwap(cur, us) {
			break
		}
	}
	h.buckets[bucketIndex(us)].Add(1)
}

// Count returns the number of observations recorded so far.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// HistogramSnapshot is a point-in-time copy of a histogram, in the
// cumulative form Prometheus expects: Cumulative[i] counts observations at
// or below BucketBoundUS(i), and Count (the +Inf bucket) is the total. The
// quantile fields are bucket-bound upper estimates for human-facing views
// (-stats, /metrics.json); scrapers should aggregate the buckets instead.
type HistogramSnapshot struct {
	Count      int64   `json:"count"`
	SumUS      int64   `json:"sum_us"`
	MaxUS      int64   `json:"max_us"`
	P50US      int64   `json:"p50_us"`
	P90US      int64   `json:"p90_us"`
	P99US      int64   `json:"p99_us"`
	Cumulative []int64 `json:"-"` // finite buckets only; exposition detail
}

// Snapshot copies the histogram. Safe concurrently with ObserveUS: buckets
// are read before the sum, so the sum covers at least every observation
// present in the buckets, and cumulative counts are monotone by
// construction.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var s HistogramSnapshot
	s.Cumulative = make([]int64, histBuckets)
	var run int64
	for i := 0; i < histBuckets; i++ {
		run += h.buckets[i].Load()
		s.Cumulative[i] = run
	}
	s.Count = run + h.buckets[histBuckets].Load()
	s.SumUS = h.sum.Load()
	s.MaxUS = h.max.Load()
	s.P50US = s.quantileUS(0.50)
	s.P90US = s.quantileUS(0.90)
	s.P99US = s.quantileUS(0.99)
	return s
}

// quantileUS returns the upper bound of the bucket holding the q-quantile
// observation (nearest rank), clamped to the recorded maximum, which no
// observation exceeds: ObserveUS raises the maximum before it counts the
// observation, and Snapshot reads the buckets first. Observations in the
// overflow bucket report the maximum.
func (s *HistogramSnapshot) quantileUS(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	for i, c := range s.Cumulative {
		if c >= rank {
			return min(BucketBoundUS(i), s.MaxUS)
		}
	}
	return s.MaxUS
}

// Histogram returns the named histogram, creating it on first use. Safe on
// a nil Observer (returns nil, whose Observe is a no-op). Like Counter, hot
// loops should hoist the returned *Histogram: the lookup takes a mutex, the
// Observe is a few atomics.
func (o *Observer) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	h := o.hists[name]
	if h == nil {
		h = &Histogram{}
		o.hists[name] = h
	}
	return h
}

// stageHistogram returns the per-span-name stage histogram, creating it on
// first use. Span names form a small closed set (the pipeline stages), so
// the registry stays bounded.
func (o *Observer) stageHistogram(name string) *Histogram {
	o.mu.Lock()
	defer o.mu.Unlock()
	h := o.stages[name]
	if h == nil {
		h = &Histogram{}
		o.stages[name] = h
	}
	return h
}

// snapshotHists copies a histogram registry under the observer lock.
func snapshotHists(m map[string]*Histogram) map[string]HistogramSnapshot {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]HistogramSnapshot, len(m))
	for n, h := range m {
		out[n] = h.Snapshot()
	}
	return out
}
