package memo_test

import (
	"testing"

	"repro/internal/memo"
)

// TestDoHitAllocs: a hit allocates nothing, including deriving the point's
// key from a curve's key with WithWord the way sbd does. The test sits
// outside package memo and builds its compute closure per call, capturing
// locals, the way the evaluation hot paths call the cache: the closure must
// stay on the caller's stack.
func TestDoHitAllocs(t *testing.T) {
	c := memo.New(memo.Schedule)
	curve := memo.NewKey([]byte("schedule|fingerprint"), 0)
	budget := 7
	lookup := func() any {
		compute := func() (any, bool) { return &budget, budget > 0 }
		return c.Do(memo.Schedule, curve.WithWord(uint64(budget)), compute)
	}
	lookup()
	if n := testing.AllocsPerRun(100, func() { lookup() }); n != 0 {
		t.Errorf("Do hit: %v allocs, want 0", n)
	}
	if st := c.Stats(memo.Schedule); st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want every lookup after the first a hit", st)
	}
}
