package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketIndex(t *testing.T) {
	cases := []struct {
		us   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, // bucket 0: <= 1µs
		{2, 1},         // (1, 2]
		{3, 2}, {4, 2}, // (2, 4]
		{5, 3}, {8, 3},
		{1024, 10}, {1025, 11},
		{1 << 35, histBuckets - 1},    // largest finite bound, inclusive
		{1<<35 + 1, histBuckets},      // first overflow value
		{int64(1) << 40, histBuckets}, // deep overflow
	}
	for _, c := range cases {
		us := c.us
		if us < 0 {
			us = 0 // ObserveUS clamps before indexing
		}
		if got := bucketIndex(us); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", us, got, c.want)
		}
	}
	for i := 0; i < histBuckets; i++ {
		b := BucketBoundUS(i)
		if got := bucketIndex(b); got != i {
			t.Errorf("bound %d (bucket %d) indexed into bucket %d", b, i, got)
		}
		if got := bucketIndex(b + 1); got != i+1 {
			t.Errorf("bound+1 %d should fall in bucket %d, got %d", b+1, i+1, got)
		}
	}
}

func TestHistogramSnapshotQuantiles(t *testing.T) {
	h := NewHistogram()
	for _, us := range []int64{1, 2, 3, 4} {
		h.ObserveUS(us)
	}
	s := h.Snapshot()
	if s.Count != 4 || s.SumUS != 10 || s.MaxUS != 4 {
		t.Fatalf("count/sum/max = %d/%d/%d, want 4/10/4", s.Count, s.SumUS, s.MaxUS)
	}
	// Nearest rank: p50 is the 2nd of 4 samples (value 2, bucket bound 2);
	// p99 is the 4th (value 3 or 4 -> bucket bound 4).
	if s.P50US != 2 {
		t.Errorf("p50 = %d, want 2", s.P50US)
	}
	if s.P99US != 4 {
		t.Errorf("p99 = %d, want 4", s.P99US)
	}
	if len(s.Cumulative) != histBuckets {
		t.Fatalf("cumulative length %d, want %d", len(s.Cumulative), histBuckets)
	}
	if s.Cumulative[0] != 1 || s.Cumulative[1] != 2 || s.Cumulative[2] != 4 {
		t.Errorf("cumulative prefix = %v", s.Cumulative[:3])
	}
	if s.Cumulative[histBuckets-1] != 4 {
		t.Errorf("last finite cumulative = %d, want 4", s.Cumulative[histBuckets-1])
	}
}

// TestHistogramQuantileClampedToMax: one sample inside a bucket reports
// itself, not the bucket's upper bound, at every quantile.
func TestHistogramQuantileClampedToMax(t *testing.T) {
	h := NewHistogram()
	h.ObserveUS(36_700) // in the bucket bounded by 65 536
	s := h.Snapshot()
	if s.P50US != 36_700 || s.P90US != 36_700 || s.P99US != 36_700 {
		t.Errorf("p50/p90/p99 = %d/%d/%d, want the one sample 36700", s.P50US, s.P90US, s.P99US)
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram()
	big := int64(1) << 40 // ~18 minutes, beyond the largest finite bound
	h.ObserveUS(big)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("count = %d, want 1", s.Count)
	}
	if s.Cumulative[histBuckets-1] != 0 {
		t.Fatalf("overflow observation leaked into a finite bucket: %v", s.Cumulative)
	}
	// A quantile landing in the overflow bucket reports the recorded max,
	// the only honest upper bound available.
	if s.P99US != big {
		t.Errorf("overflow p99 = %d, want the max %d", s.P99US, big)
	}
}

func TestHistogramZeroValueAndNil(t *testing.T) {
	var nilH *Histogram
	nilH.Observe(time.Second) // must not panic
	nilH.ObserveUS(5)
	if nilH.Count() != 0 {
		t.Error("nil histogram reported observations")
	}
	if s := nilH.Snapshot(); s.Count != 0 || s.Cumulative != nil {
		t.Errorf("nil snapshot not zero: %+v", s)
	}
	if s := NewHistogram().Snapshot(); s.Count != 0 || s.P99US != 0 {
		t.Errorf("empty snapshot not zero: %+v", s)
	}
}

func TestHistogramObserveAllocFree(t *testing.T) {
	h := NewHistogram()
	if n := testing.AllocsPerRun(200, func() { h.ObserveUS(123) }); n != 0 {
		t.Errorf("ObserveUS allocates %.1f objects per call, want 0", n)
	}
	var nilH *Histogram
	if n := testing.AllocsPerRun(200, func() { nilH.Observe(time.Millisecond) }); n != 0 {
		t.Errorf("nil Observe allocates %.1f objects per call, want 0", n)
	}
}

// TestHistogramConcurrentSnapshots hammers one histogram from writers while
// readers snapshot, asserting the invariants the write/read ordering
// guarantees: cumulative counts monotone within a snapshot, total count
// monotone across snapshots, and the sum always covering at least the
// bucket-implied lower bound of every bucketed observation. Run with -race.
func TestHistogramConcurrentSnapshots(t *testing.T) {
	h := NewHistogram()
	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			v := seed
			for i := 0; i < perWriter; i++ {
				v = v*6364136223846793005 + 1442695040888963407
				h.ObserveUS((v >> 33) & 0xffff) // 0..65535 µs
			}
		}(int64(w + 1))
	}
	var readErr error
	var readWG sync.WaitGroup
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		var lastCount int64
		for {
			s := h.Snapshot()
			if s.Count < lastCount {
				readErr = fmt.Errorf("count regressed across snapshots: %d -> %d", lastCount, s.Count)
				return
			}
			lastCount = s.Count
			var lower int64
			prev := int64(0)
			for i, c := range s.Cumulative {
				if c < prev {
					readErr = fmt.Errorf("cumulative[%d] = %d below predecessor %d", i, c, prev)
					return
				}
				if i > 0 {
					lower += (c - prev) * BucketBoundUS(i-1)
				}
				prev = c
			}
			if s.SumUS < lower {
				readErr = fmt.Errorf("sum %dus below bucket-implied lower bound %dus", s.SumUS, lower)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	readWG.Wait()
	if readErr != nil {
		t.Fatal(readErr)
	}
	if got := h.Count(); got != writers*perWriter {
		t.Fatalf("final count %d, want %d", got, writers*perWriter)
	}
}
