package memo

import (
	"testing"
	"time"
)

func TestDiskImportCounted(t *testing.T) {
	d, err := OpenDiskTier(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Put(Requests, tkey("organic"), []byte("a"))
	if !d.Import(Requests, tkey("handoff"), []byte("b")) {
		t.Fatal("import should succeed")
	}
	if got := d.Stats().Imported; got != 1 {
		t.Fatalf("Imported = %d, want 1", got)
	}
	// The append is write-behind; poll until the background writer lands it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok := d.Get(Requests, tkey("handoff")); ok {
			if string(v) != "b" {
				t.Fatalf("imported record = %q, want \"b\"", v)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("imported record never became readable")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCacheSeedAndRange(t *testing.T) {
	c := New(Requests)
	if !c.Seed(Requests, tkey("k1"), "v1") {
		t.Fatal("seeding an empty slot should succeed")
	}
	if c.Seed(Requests, tkey("k1"), "clobber") {
		t.Fatal("seeding over an existing entry must be refused")
	}
	// A seeded entry serves hits without recomputing.
	ran := false
	got := c.Do(Requests, tkey("k1"), func() (any, bool) { ran = true; return "computed", true })
	if ran || got != "v1" {
		t.Fatalf("seeded value must serve the hit: got %v ran=%v", got, ran)
	}
	// Seed must not break an in-flight singleflight.
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan any)
	go func() {
		done <- c.Do(Requests, tkey("k2"), func() (any, bool) {
			close(started)
			<-release
			return "slow", true
		})
	}()
	<-started
	if c.Seed(Requests, tkey("k2"), "fast") {
		t.Fatal("seed must not replace an in-flight entry")
	}
	close(release)
	if got := <-done; got != "slow" {
		t.Fatalf("in-flight compute must win, got %v", got)
	}

	// Range sees both completed entries and no in-flight ones.
	seen := map[Key]any{}
	c.Range(Requests, func(key Key, val any) bool {
		seen[key] = val
		return true
	})
	if len(seen) != 2 || seen[tkey("k1")] != "v1" || seen[tkey("k2")] != "slow" {
		t.Fatalf("Range saw %v", seen)
	}
}

func TestCacheSeedRespectsBound(t *testing.T) {
	c := New(Requests)
	c.Bound(Requests, 1<<10)
	big := make([]byte, 1<<20)
	if c.Seed(Requests, tkey("big"), big) {
		t.Fatal("an over-cap seed should be declined by retain")
	}
	// The entry must not be resident afterwards.
	resident := 0
	c.Range(Requests, func(Key, any) bool { resident++; return true })
	if resident != 0 {
		t.Fatalf("over-cap seed leaked %d resident entries", resident)
	}
}
