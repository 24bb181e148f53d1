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

// TestAddressTrace: only reads of an array created under the traced name
// after StreamAddressTrace reach the sink; a nil recorder traces nothing.
func TestAddressTrace(t *testing.T) {
	r := NewRecorder()
	s := &fakeSink{backing: map[*int32]bool{}}
	r.StreamAddressTrace("m", s)
	a := NewArray2D(r, "m", 4, 4)
	other := NewArray2D(r, "other", 4, 4)
	a.Set(1, 2, 7) // writes are not traced
	_ = a.Get(1, 2)
	_ = other.Get(0, 0) // untraced array
	_ = a.Get(3, 0)
	r.CloseAddressTrace("m")
	r.CloseAddressTrace("other") // not traced: no-op
	if want := []int32{2*4 + 1, 3}; !slices.Equal(s.flat, want) {
		t.Fatalf("trace = %v, want %v", s.flat, want)
	}
	// Arrays created before the trace is turned on are not traced.
	r2 := NewRecorder()
	late := &fakeSink{backing: map[*int32]bool{}}
	b := NewArray2D(r2, "late", 2, 2)
	r2.StreamAddressTrace("late", late)
	_ = b.Get(0, 0)
	r2.CloseAddressTrace("late")
	if len(late.flat) != 0 || len(late.extents) != 0 {
		t.Fatalf("pre-trace array reached the sink: extents %v, trace %v", late.extents, late.flat)
	}
	// Nil recorder paths.
	var nr *Recorder
	nr.StreamAddressTrace("x", s)
	nr.CloseAddressTrace("x")
	NewArray2D(nr, "x", 2, 2).Get(1, 1)
	if len(s.flat) != 2 {
		t.Fatal("nil recorder traced an address")
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

// keeper is an AddressSink that keeps every chunk it is handed, uncopied,
// and never gives one back.
type keeper struct {
	extents []int
	chunks  [][]int32
}

func (k *keeper) Extent(words int)        { k.extents = append(k.extents, words) }
func (k *keeper) Chunk(c []int32) []int32 { k.chunks = append(k.chunks, c); return nil }
func (k *keeper) Close()                  {}

// TestAddressChunks: a trace longer than one chunk is delivered as full
// ChunkLen chunks plus the flushed tail, in order; a chunk the sink keeps
// is never written again, so the kept chunks still hold the whole trace at
// the end; and every array created under a traced name feeds the same
// trace.
func TestAddressChunks(t *testing.T) {
	r := NewRecorder()
	k := &keeper{}
	r.StreamAddressTrace("m", k)
	a := NewArray2D(r, "m", 64, 1024) // 64Ki elements
	n := 2*ChunkLen + 5
	for i := 0; i < n; i++ {
		a.Get(i%64, i/64)
	}
	b := NewArray2D(r, "m", 64, 1024) // same name: same trace
	b.Get(7, 0)
	a.Get(9, 0)
	r.CloseAddressTrace("m")
	lens := make([]int, len(k.chunks))
	for i, c := range k.chunks {
		lens[i] = len(c)
	}
	if want := []int{ChunkLen, ChunkLen, 7}; !slices.Equal(lens, want) {
		t.Fatalf("chunk lengths %v, want %v", lens, want)
	}
	if want := []int{64 * 1024, 64 * 1024}; !slices.Equal(k.extents, want) {
		t.Fatalf("extents %v, want %v", k.extents, want)
	}
	flat := slices.Concat(k.chunks...)
	for i, v := range flat[:n] {
		if v != int32(i) {
			t.Fatalf("address %d = %d", i, v)
		}
	}
	if flat[n] != 7 || flat[n+1] != 9 {
		t.Fatalf("trace ends %v, want [7 9]", flat[n:])
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
// tail, in order, and it refills the chunk the sink gives back instead of
// allocating one.
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
	var nr *Recorder
	nr.StreamAddressTrace("m", s)
	nr.CloseAddressTrace("m")
}
