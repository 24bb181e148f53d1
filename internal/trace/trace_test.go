package trace

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadWriteCounts(t *testing.T) {
	r := NewRecorder()
	r.Read("a")
	r.Read("a")
	r.Write("a")
	r.Write("b")
	if c := r.Array("a"); c.Reads != 2 || c.Writes != 1 {
		t.Fatalf("a = %+v, want {2 1}", c)
	}
	if c := r.Array("b"); c.Reads != 0 || c.Writes != 1 {
		t.Fatalf("b = %+v, want {0 1}", c)
	}
	if c := r.Array("missing"); c.Total() != 0 {
		t.Fatalf("missing = %+v, want zero", c)
	}
	if r.TotalAccesses() != 4 {
		t.Fatalf("TotalAccesses = %d, want 4", r.TotalAccesses())
	}
}

func TestBulkCounts(t *testing.T) {
	r := NewRecorder()
	r.ReadN("x", 100)
	r.WriteN("x", 50)
	if c := r.Array("x"); c.Reads != 100 || c.Writes != 50 {
		t.Fatalf("x = %+v", c)
	}
}

func TestScopeAttribution(t *testing.T) {
	r := NewRecorder()
	r.Read("a") // root scope
	r.Push("outer")
	r.Read("a")
	r.Push("inner")
	r.Write("a")
	r.Pop()
	r.Read("a")
	r.Pop()
	if got := r.ArrayScope("a", ""); got.Reads != 1 || got.Writes != 0 {
		t.Fatalf("root scope = %+v", got)
	}
	if got := r.ArrayScope("a", "outer"); got.Reads != 2 {
		t.Fatalf("outer scope = %+v, want 2 reads", got)
	}
	if got := r.ArrayScope("a", "outer/inner"); got.Writes != 1 {
		t.Fatalf("inner scope = %+v, want 1 write", got)
	}
	if total := r.Array("a"); total.Reads != 3 || total.Writes != 1 {
		t.Fatalf("total = %+v, want {3 1}", total)
	}
}

func TestScopeNesting(t *testing.T) {
	r := NewRecorder()
	if r.names[r.cur] != "" {
		t.Fatalf("root scope = %q", r.names[r.cur])
	}
	r.Push("l1")
	r.Push("l2")
	if r.names[r.cur] != "l1/l2" {
		t.Fatalf("scope = %q, want l1/l2", r.names[r.cur])
	}
	r.Pop()
	if r.names[r.cur] != "l1" {
		t.Fatalf("scope after pop = %q", r.names[r.cur])
	}
}

func TestPopUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on scope underflow")
		}
	}()
	NewRecorder().Pop()
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Push("x")
	r.Read("a")
	r.Write("a")
	r.ReadN("a", 5)
	r.WriteN("a", 5)
	r.Pop()
	if r.TotalAccesses() != 0 || r.Arrays() != nil {
		t.Fatal("nil recorder recorded something")
	}
	if !strings.Contains(r.Report(), "disabled") {
		t.Fatal("nil recorder report should say disabled")
	}
}

func TestArraysSorted(t *testing.T) {
	r := NewRecorder()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		r.Read(n)
	}
	got := r.Arrays()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Arrays() = %v, want %v", got, want)
		}
	}
}

func TestReportOrdersByTotal(t *testing.T) {
	r := NewRecorder()
	r.ReadN("small", 1)
	r.ReadN("big", 1000)
	rep := r.Report()
	if strings.Index(rep, "big") > strings.Index(rep, "small") {
		t.Fatalf("report does not order by total:\n%s", rep)
	}
	if !strings.Contains(rep, "TOTAL") {
		t.Fatal("report missing TOTAL line")
	}
}

func TestArray2D(t *testing.T) {
	r := NewRecorder()
	a := NewArray2D(r, "m", 3, 2)
	a.Set(2, 1, 42)
	if got := a.Get(2, 1); got != 42 {
		t.Fatalf("Get = %d, want 42", got)
	}
	if got := a.Peek(2, 1); got != 42 {
		t.Fatalf("Peek = %d, want 42", got)
	}
	// 1 write + 1 read recorded; Peek not recorded.
	if c := r.Array("m"); c.Reads != 1 || c.Writes != 1 {
		t.Fatalf("counts = %+v, want {1 1}", c)
	}
}

func TestArray1D(t *testing.T) {
	r := NewRecorder()
	a := NewArray1D(r, "v", 4)
	a.Set(3, -7)
	if a.Get(3) != -7 {
		t.Fatal("round trip failed")
	}
	if c := r.Array("v"); c.Reads != 1 || c.Writes != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestArrayInvalidDimsPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewArray2D(nil, "x", 0, 1) },
		func() { NewArray1D(nil, "x", 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid dims")
				}
			}()
			f()
		}()
	}
}

func TestArraysWithNilRecorder(t *testing.T) {
	a := NewArray2D(nil, "m", 2, 2)
	a.Set(0, 0, 5)
	if a.Get(0, 0) != 5 {
		t.Fatal("nil-recorder array does not store values")
	}
}

func TestHandleMatchesDirectAPI(t *testing.T) {
	direct := NewRecorder()
	viaHandle := NewRecorder()
	h := viaHandle.NewHandle("a")

	direct.Read("a")
	h.Read(1)
	direct.Push("loop")
	viaHandle.Push("loop")
	direct.Write("a")
	direct.Write("a")
	h.Write(2)
	direct.Pop()
	viaHandle.Pop()
	direct.ReadN("a", 3)
	h.Read(3)

	if direct.Array("a") != viaHandle.Array("a") {
		t.Fatalf("totals differ: %+v vs %+v", direct.Array("a"), viaHandle.Array("a"))
	}
	for _, scope := range []string{"", "loop"} {
		if direct.ArrayScope("a", scope) != viaHandle.ArrayScope("a", scope) {
			t.Fatalf("scope %q differs: %+v vs %+v", scope,
				direct.ArrayScope("a", scope), viaHandle.ArrayScope("a", scope))
		}
	}
}

func TestHandleScopeCacheInvalidation(t *testing.T) {
	r := NewRecorder()
	h := r.NewHandle("x")
	h.Read(1) // root
	r.Push("a")
	h.Read(1) // scope a
	r.Pop()
	r.Push("a") // same label again: must still attribute correctly
	h.Read(1)
	r.Pop()
	h.Read(1) // back at root
	if c := r.ArrayScope("x", ""); c.Reads != 2 {
		t.Fatalf("root reads = %d, want 2", c.Reads)
	}
	if c := r.ArrayScope("x", "a"); c.Reads != 2 {
		t.Fatalf("scope-a reads = %d, want 2", c.Reads)
	}
}

func TestNilHandle(t *testing.T) {
	var r *Recorder
	h := r.NewHandle("x")
	if h != nil {
		t.Fatal("nil recorder should yield nil handle")
	}
	h.Read(5) // must not crash
	h.Write(5)
}

func TestAddressTrace(t *testing.T) {
	r := NewRecorder()
	r.EnableAddressTrace("m")
	r.EnableAddressTrace("m") // idempotent
	a := NewArray2D(r, "m", 4, 4)
	a.Set(1, 2, 7) // writes are not traced
	_ = a.Get(1, 2)
	_ = a.Get(3, 0)
	got := r.Addresses("m")
	want := []int32{2*4 + 1, 3}
	if len(got) != len(want) {
		t.Fatalf("trace = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace = %v, want %v", got, want)
		}
	}
	// Untraced arrays return nil.
	if r.Addresses("other") != nil {
		t.Fatal("untraced array has addresses")
	}
	// Arrays created before enabling are not traced.
	r2 := NewRecorder()
	b := NewArray2D(r2, "late", 2, 2)
	r2.EnableAddressTrace("late")
	_ = b.Get(0, 0)
	if len(r2.Addresses("late")) != 0 {
		t.Fatal("pre-enable array captured addresses")
	}
	// Nil recorder paths.
	var nr *Recorder
	nr.EnableAddressTrace("x")
	if nr.Addresses("x") != nil {
		t.Fatal("nil recorder has addresses")
	}
}

func TestArrayScopeMissingCases(t *testing.T) {
	r := NewRecorder()
	if c := r.ArrayScope("never", "s"); c.Total() != 0 {
		t.Fatal("missing array scope non-zero")
	}
	r.Read("a")
	if c := r.ArrayScope("a", "ghost-scope"); c.Total() != 0 {
		t.Fatal("missing scope non-zero")
	}
}

func TestArray1DPeek(t *testing.T) {
	r := NewRecorder()
	a := NewArray1D(r, "v", 2)
	a.Set(1, 9)
	before := r.Array("v")
	if a.Peek(1) != 9 {
		t.Fatal("peek value wrong")
	}
	if r.Array("v") != before {
		t.Fatal("Peek recorded an access")
	}
}

// Property: totals always equal the sum of per-scope counts.
func TestQuickScopeSumsMatchTotal(t *testing.T) {
	f := func(ops []uint8) bool {
		r := NewRecorder()
		depth := 0
		for _, op := range ops {
			switch op % 5 {
			case 0:
				r.Push("s")
				depth++
			case 1:
				if depth > 0 {
					r.Pop()
					depth--
				}
			case 2:
				r.Read("a")
			case 3:
				r.Write("a")
			case 4:
				r.ReadN("b", uint64(op))
			}
		}
		for _, name := range []string{"a", "b"} {
			var sum Counts
			s := r.arrays[name]
			if s == nil {
				continue
			}
			for _, c := range s.per {
				sum.Add(c)
			}
			if sum != s.Counts {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAddressesReturnsCopy is a regression test: Addresses must hand out a
// copy of the capture buffer, not the live internal slice. Mutating the
// returned slice — or recording further reads — must not corrupt (or be
// visible through) an earlier snapshot.
func TestAddressesReturnsCopy(t *testing.T) {
	r := NewRecorder()
	r.EnableAddressTrace("img")
	a := NewArray2D(r, "img", 4, 4)
	a.Set(0, 0, 7)
	a.Get(0, 0)
	a.Get(1, 0)

	snap := r.Addresses("img")
	if len(snap) != 2 || snap[0] != 0 || snap[1] != 1 {
		t.Fatalf("trace = %v, want [0 1]", snap)
	}

	// Mutating the caller's slice must not reach the recorder.
	snap[0] = 99
	if got := r.Addresses("img"); got[0] != 0 {
		t.Fatalf("internal trace corrupted by caller mutation: %v", got)
	}

	// Further recording must not grow the earlier snapshot.
	a.Get(2, 0)
	if len(snap) != 2 {
		t.Fatalf("snapshot aliased the live buffer: len=%d", len(snap))
	}
	if got := r.Addresses("img"); len(got) != 3 || got[2] != 2 {
		t.Fatalf("post-mutation trace = %v, want [0 1 2]", got)
	}
}

// TestScopePathsShareTallies: scope tallies are keyed by the full path, so
// the same path reached by different pushes ("a/b" at the root, or "b"
// inside "a") shares one tally, and a child of an empty label nests under
// "" rather than at the root.
func TestScopePathsShareTallies(t *testing.T) {
	r := NewRecorder()
	r.Push("a/b")
	r.Read("x")
	r.Pop()
	r.Push("a")
	r.Push("b")
	r.Read("x")
	if r.names[r.cur] != "a/b" {
		t.Fatalf("scope = %q, want a/b", r.names[r.cur])
	}
	r.Pop()
	r.Pop()
	if c := r.ArrayScope("x", "a/b"); c.Reads != 2 {
		t.Fatalf("a/b reads = %d, want 2", c.Reads)
	}
	r.Push("")
	r.Read("x") // scope "", shared with the root
	r.Push("c")
	r.Read("x") // scope "/c"
	if r.names[r.cur] != "/c" {
		t.Fatalf("scope = %q, want /c", r.names[r.cur])
	}
	r.Pop()
	r.Pop()
	r.Push("c")
	r.Read("x") // scope "c"
	r.Pop()
	for scope, want := range map[string]uint64{"": 1, "/c": 1, "c": 1, "a": 0} {
		if c := r.ArrayScope("x", scope); c.Reads != want {
			t.Errorf("scope %q reads = %d, want %d", scope, c.Reads, want)
		}
	}
}

// TestScopeBeforeArray: an array first accessed after scopes were interned
// still attributes to them, and scopes interned after a handle was made
// reach that handle's array.
func TestScopeBeforeArray(t *testing.T) {
	r := NewRecorder()
	r.Push("early")
	r.Pop()
	h := r.NewHandle("late")
	r.Push("early")
	h.Read(3)
	r.Push("new")
	h.Write(2)
	r.Pop()
	r.Pop()
	if c := r.ArrayScope("late", "early"); c.Reads != 3 {
		t.Fatalf("early reads = %d, want 3", c.Reads)
	}
	if c := r.ArrayScope("late", "early/new"); c.Writes != 2 {
		t.Fatalf("early/new writes = %d, want 2", c.Writes)
	}
}

// TestAddressChunks: a trace longer than one chunk is delivered as full
// ChunkLen chunks plus the flushed tail, in order; a chunk handed out is
// never written again; and every array created under a traced name feeds
// the same trace.
func TestAddressChunks(t *testing.T) {
	r := NewRecorder()
	r.EnableAddressTrace("m")
	a := NewArray2D(r, "m", 64, 1024) // 64Ki elements
	n := 2*ChunkLen + 5
	for i := 0; i < n; i++ {
		a.Get(i%64, i/64)
	}
	chunks := r.AddressChunks("m")
	if len(chunks) != 3 || len(chunks[0]) != ChunkLen || len(chunks[1]) != ChunkLen || len(chunks[2]) != 5 {
		lens := make([]int, len(chunks))
		for i, c := range chunks {
			lens[i] = len(c)
		}
		t.Fatalf("chunk lengths %v, want [%d %d 5]", lens, ChunkLen, ChunkLen)
	}
	want := int32(0)
	for _, c := range chunks {
		for _, v := range c {
			if v != want {
				t.Fatalf("address %d = %d", want, v)
			}
			want++
		}
	}
	// Reads after the flush start a new chunk; the tail handed out above
	// keeps its contents, including its spare capacity.
	tail := chunks[2][:cap(chunks[2])]
	b := NewArray2D(r, "m", 64, 1024) // same name: same trace
	b.Get(7, 0)
	a.Get(9, 0)
	for i := 5; i < len(tail); i++ {
		if tail[i] != 0 {
			t.Fatalf("handed-out chunk written at %d after the flush", i)
		}
	}
	again := r.AddressChunks("m")
	if len(again) != 4 || len(again[3]) != 2 || again[3][0] != 7 || again[3][1] != 9 {
		t.Fatalf("post-flush chunks: %d chunks, last %v; want 4, [7 9]", len(again), again[len(again)-1])
	}
	if got := r.Addresses("m"); len(got) != n+2 || got[n] != 7 || got[n+1] != 9 {
		t.Fatalf("flat trace has %d addresses, want %d ending 7 9", len(got), n+2)
	}
	if r.AddressChunks("untraced") != nil {
		t.Fatal("untraced array has chunks")
	}
	var nr *Recorder
	if nr.AddressChunks("m") != nil {
		t.Fatal("nil recorder has chunks")
	}
}

// fakeSink records what a streamed trace hands it and gives each full
// chunk back as the next one to fill.
type fakeSink struct {
	extents []int
	flat    []int32
	lens    []int
	backing map[*int32]bool // first elements of the chunks handed over
	closed  bool
}

func (s *fakeSink) Extent(words int) { s.extents = append(s.extents, words) }

func (s *fakeSink) Chunk(c []int32) []int32 {
	s.flat = append(s.flat, c...)
	s.lens = append(s.lens, len(c))
	s.backing[&c[:1][0]] = true
	return c[:0]
}

func (s *fakeSink) Close() { s.closed = true }

// TestStreamAddressTrace: a streamed trace learns the array's extent at
// creation, hands over full ChunkLen chunks and, at CloseAddressTrace, the
// tail, in order; it refills the chunk the sink gives back instead of
// allocating one, and keeps no chunk list of its own.
func TestStreamAddressTrace(t *testing.T) {
	r := NewRecorder()
	s := &fakeSink{backing: map[*int32]bool{}}
	r.StreamAddressTrace("m", s)
	a := NewArray2D(r, "m", 64, 1024)
	n := 3*ChunkLen + 5
	for i := 0; i < n; i++ {
		a.Get(i%64, (i/64)%1024)
	}
	r.CloseAddressTrace("m")
	if len(s.extents) != 1 || s.extents[0] != 64*1024 || !s.closed {
		t.Fatalf("extents %v, closed %v; want [%d], true", s.extents, s.closed, 64*1024)
	}
	if want := []int{ChunkLen, ChunkLen, ChunkLen, 5}; !slices.Equal(s.lens, want) {
		t.Fatalf("chunk lengths %v, want %v", s.lens, want)
	}
	for i, v := range s.flat {
		if v != int32(i%(64*1024)) {
			t.Fatalf("address %d = %d", i, v)
		}
	}
	if len(s.backing) != 1 {
		t.Fatalf("%d chunk buffers for a sink that gives every chunk back, want 1", len(s.backing))
	}
	if r.AddressChunks("m") != nil || r.Addresses("m") != nil {
		t.Fatal("a streamed trace kept chunks")
	}
	var nr *Recorder
	nr.StreamAddressTrace("m", s)
	nr.CloseAddressTrace("m")
}
