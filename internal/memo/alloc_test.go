package memo_test

import (
	"testing"

	"repro/internal/memo"
)

// TestDoHitAllocs: a hit allocates nothing, through Do with a string key
// and through DoKey with a byte key (no string is materialized for the
// lookup). The test sits outside package memo and builds its compute
// closure per call, capturing locals, the way the evaluation hot paths
// call the cache: the closure must stay on the caller's stack.
func TestDoHitAllocs(t *testing.T) {
	c := memo.New()
	key := "schedule|fingerprint"
	buf := []byte(key)
	budget := 7
	lookup := func(byKey bool) any {
		compute := func() (any, bool) { return &budget, budget > 0 }
		if byKey {
			return c.DoKey(memo.Schedule, buf, compute)
		}
		return c.Do(memo.Schedule, key, compute)
	}
	lookup(false)
	if n := testing.AllocsPerRun(100, func() { lookup(false) }); n != 0 {
		t.Errorf("Do hit: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { lookup(true) }); n != 0 {
		t.Errorf("DoKey hit: %v allocs, want 0", n)
	}
	if st := c.Stats(memo.Schedule); st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want every lookup after the first a hit", st)
	}
}
