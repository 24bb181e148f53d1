// Package trace implements memory-access profiling. The paper (§4.1) notes
// that for data-dependent applications the access counts needed by the cost
// estimators "can only be obtained by profiling" and that IMEC wrote
// software to automatically instrument the application; this package is
// that instrumentation layer.
//
// A Recorder counts reads and writes per named array (basic group),
// attributed to the innermost active scope (loop label). Instrumented array
// wrappers (Array1D, Array2D) make instrumenting an algorithm a mechanical
// substitution of indexing syntax. The read addresses of a chosen 2-D
// array stream, chunk by chunk, to an AddressSink (StreamAddressTrace);
// the data-reuse analysis is such a sink, so the trace is never held whole.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Counts is a read/write tally.
type Counts struct {
	Reads  uint64
	Writes uint64
}

// Total returns reads + writes.
func (c Counts) Total() uint64 { return c.Reads + c.Writes }

// Add accumulates o into c.
func (c *Counts) Add(o Counts) {
	c.Reads += o.Reads
	c.Writes += o.Writes
}

// ArrayStats aggregates the accesses to one array.
type ArrayStats struct {
	Counts
	per []Counts // tally within each scope, indexed by scope id
}

// ChunkLen is the number of addresses one chunk of an address trace holds.
// A full chunk is handed over whole and a fresh one started, so capture
// never regrows or copies a buffer.
const ChunkLen = 16 * 1024

// An AddressSink consumes the read-address trace of one array chunk by
// chunk, in trace order, so the trace need never be held whole
// (reuse.Stream analyzes it as it arrives).
type AddressSink interface {
	// Extent is called when an array is created under the traced name,
	// before any of its reads, with its size in words: each of its
	// addresses lies in [0, words).
	Extent(words int)
	// Chunk takes over c; the recorder never touches it again. It returns
	// an empty chunk of capacity ChunkLen to fill next, or nil to have one
	// allocated.
	Chunk(c []int32) []int32
	// Close is called after the last chunk.
	Close()
}

// addressTrace is the read-address trace of one array. Addresses go into
// the open chunk; when it is full, spill hands it to the sink and the next
// access fills the chunk the sink gave back, or a fresh one.
type addressTrace struct {
	open []int32 // chunk being filled, capacity ChunkLen; nil until the next access
	sink AddressSink
}

func (t *addressTrace) add(a int32) {
	if len(t.open) == cap(t.open) {
		t.spill()
	}
	t.open = append(t.open, a)
}

func (t *addressTrace) spill() {
	t.flush()
	if t.open == nil {
		t.open = make([]int32, 0, ChunkLen)
	}
}

// flush hands the partial tail chunk to the sink and keeps the empty chunk
// the sink gave back, if any, so a chunk is never written after it has been
// handed over.
func (t *addressTrace) flush() {
	if len(t.open) > 0 {
		t.open = t.sink.Chunk(t.open)
	}
}

// scopeKey names a pushed scope by its parent's id (-1 at the root) and its
// own label.
type scopeKey struct {
	parent int32
	label  string
}

// Recorder accumulates access counts. The zero value is not usable; call
// NewRecorder. A nil *Recorder is valid everywhere and records nothing,
// which lets instrumented code run at full speed when profiling is off.
//
// Every scope path is interned to a dense id when it is first pushed, and
// each array keeps its per-scope tallies in a slice indexed by that id, so
// recording an access is two increments.
type Recorder struct {
	arrays map[string]*ArrayStats
	ids    map[scopeKey]int32 // (parent id, label) -> scope id
	byName map[string]int32   // full scope path -> scope id
	names  []string           // scope id -> full scope path; id 0 is the root ""
	stack  []int32            // enclosing scope ids of the active scope
	cur    int32              // active scope id; attribution goes here
	addrs  map[string]*addressTrace
}

// NewRecorder returns an empty Recorder with the root scope "" active.
func NewRecorder() *Recorder {
	return &Recorder{
		arrays: make(map[string]*ArrayStats),
		ids:    make(map[scopeKey]int32),
		byName: map[string]int32{"": 0},
		names:  []string{""},
	}
}

// StreamAddressTrace turns on read-address capture for the named array:
// its reads are handed to sink chunk by chunk, in trace order, and
// CloseAddressTrace ends the trace. It must be called before the
// instrumented array is created; arrays created earlier are not traced.
// Address traces feed the data-reuse analysis of the memory hierarchy step.
func (r *Recorder) StreamAddressTrace(array string, sink AddressSink) {
	if r == nil {
		return
	}
	if r.addrs == nil {
		r.addrs = make(map[string]*addressTrace)
	}
	r.addrs[array] = &addressTrace{sink: sink}
}

// CloseAddressTrace hands the named array's partial tail chunk to its sink
// and closes the sink; the array must not be read afterwards. It does
// nothing for an array whose trace is not captured.
func (r *Recorder) CloseAddressTrace(array string) {
	if r == nil || r.addrs[array] == nil {
		return
	}
	t := r.addrs[array]
	t.flush()
	t.sink.Close()
}

// Push enters a scope (e.g. a loop label). Scope names nest with "/".
func (r *Recorder) Push(label string) {
	if r == nil {
		return
	}
	key := scopeKey{r.cur, label}
	if len(r.stack) == 0 {
		key.parent = -1 // the root: its children's paths carry no prefix
	}
	id, ok := r.ids[key]
	if !ok {
		id = r.intern(key)
	}
	r.stack = append(r.stack, r.cur)
	r.cur = id
}

// intern assigns key its scope id. Keys that spell the same full path
// ("a/b" pushed at the root, or "b" pushed inside "a") share one id; a new
// id appends one tally slot to every array.
func (r *Recorder) intern(key scopeKey) int32 {
	full := key.label
	if key.parent >= 0 {
		full = r.names[key.parent] + "/" + key.label
	}
	id, ok := r.byName[full]
	if !ok {
		id = int32(len(r.names))
		r.names = append(r.names, full)
		r.byName[full] = id
		for _, s := range r.arrays {
			s.per = append(s.per, Counts{})
		}
	}
	r.ids[key] = id
	return id
}

// Pop leaves the innermost scope. Popping the root is an error in the
// instrumentation and panics.
func (r *Recorder) Pop() {
	if r == nil {
		return
	}
	n := len(r.stack)
	if n == 0 {
		panic("trace: scope stack underflow")
	}
	r.cur = r.stack[n-1]
	r.stack = r.stack[:n-1]
}

func (r *Recorder) stats(array string) *ArrayStats {
	s := r.arrays[array]
	if s == nil {
		s = &ArrayStats{per: make([]Counts, len(r.names))}
		r.arrays[array] = s
	}
	return s
}

// Read records one read of array.
func (r *Recorder) Read(array string) { r.ReadN(array, 1) }

// Write records one write of array.
func (r *Recorder) Write(array string) { r.WriteN(array, 1) }

// ReadN and WriteN record n accesses at once (bulk transfers).
func (r *Recorder) ReadN(array string, n uint64) {
	if r == nil {
		return
	}
	s := r.stats(array)
	s.Reads += n
	s.per[r.cur].Reads += n
}

// WriteN records n writes of array.
func (r *Recorder) WriteN(array string, n uint64) {
	if r == nil {
		return
	}
	s := r.stats(array)
	s.Writes += n
	s.per[r.cur].Writes += n
}

// Array returns the tally for one array (zero Counts if never accessed).
func (r *Recorder) Array(name string) Counts {
	if r == nil {
		return Counts{}
	}
	if s := r.arrays[name]; s != nil {
		return s.Counts
	}
	return Counts{}
}

// ArrayScope returns the tally for one array within one scope label.
func (r *Recorder) ArrayScope(name, scope string) Counts {
	if r == nil {
		return Counts{}
	}
	s := r.arrays[name]
	id, ok := r.byName[scope]
	if s == nil || !ok {
		return Counts{}
	}
	return s.per[id]
}

// Arrays returns the profiled array names, sorted.
func (r *Recorder) Arrays() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.arrays))
	for n := range r.arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TotalAccesses returns the grand total across all arrays.
func (r *Recorder) TotalAccesses() uint64 {
	if r == nil {
		return 0
	}
	var t uint64
	for _, s := range r.arrays {
		t += s.Total()
	}
	return t
}

// Report renders a human-readable profile, arrays sorted by total accesses
// descending (the view a designer uses to find the dominant basic groups).
func (r *Recorder) Report() string {
	if r == nil {
		return "(profiling disabled)\n"
	}
	names := r.Arrays()
	sort.Slice(names, func(i, j int) bool {
		ti, tj := r.arrays[names[i]].Total(), r.arrays[names[j]].Total()
		if ti != tj {
			return ti > tj
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %14s %14s %14s\n", "array", "reads", "writes", "total")
	for _, n := range names {
		s := r.arrays[n]
		fmt.Fprintf(&b, "%-16s %14d %14d %14d\n", n, s.Reads, s.Writes, s.Total())
	}
	fmt.Fprintf(&b, "%-16s %44d\n", "TOTAL", r.TotalAccesses())
	return b.String()
}

// Handle is a low-overhead recording channel for one array. It avoids the
// per-access map lookup of Recorder.Read/Write, which matters when
// instrumenting an application that makes tens of millions of accesses (the
// 1024×1024 BTPC profile): a Handle access is one increment of the array's
// total and one of its tally in the active scope. A nil *Handle records
// nothing.
type Handle struct {
	rec   *Recorder
	stats *ArrayStats
}

// NewHandle returns a recording handle for the named array, or nil when the
// Recorder is nil (profiling off).
func (r *Recorder) NewHandle(array string) *Handle {
	if r == nil {
		return nil
	}
	return &Handle{rec: r, stats: r.stats(array)}
}

// Read records n reads.
func (h *Handle) Read(n uint64) {
	if h == nil {
		return
	}
	h.stats.Reads += n
	h.stats.per[h.rec.cur].Reads += n
}

// Write records n writes.
func (h *Handle) Write(n uint64) {
	if h == nil {
		return
	}
	h.stats.Writes += n
	h.stats.per[h.rec.cur].Writes += n
}

// Array2D is an instrumented 2-D integer array bound to a Recorder.
// Indexing is (x, y) with row-major storage, mirroring img.Gray.
type Array2D struct {
	Name string
	W, H int
	data []int32
	h    *Handle
	addr *addressTrace // read-address capture, nil unless streamed
}

// NewArray2D allocates an instrumented W×H array recording into rec
// (rec may be nil to disable profiling).
func NewArray2D(rec *Recorder, name string, w, h int) *Array2D {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("trace: invalid array dimensions %dx%d", w, h))
	}
	a := &Array2D{Name: name, W: w, H: h, data: make([]int32, w*h), h: rec.NewHandle(name)}
	if rec != nil {
		if a.addr = rec.addrs[name]; a.addr != nil {
			a.addr.sink.Extent(w * h)
		}
	}
	return a
}

// Get reads element (x, y), recording one read access.
func (a *Array2D) Get(x, y int) int32 {
	i := y*a.W + x
	a.h.Read(1)
	if a.addr != nil {
		a.addr.add(int32(i))
	}
	return a.data[i]
}

// Set writes element (x, y), recording one write access.
func (a *Array2D) Set(x, y int, v int32) {
	a.h.Write(1)
	a.data[y*a.W+x] = v
}

// Peek reads without recording (for assertions and debugging only).
func (a *Array2D) Peek(x, y int) int32 { return a.data[y*a.W+x] }

// Array1D is an instrumented 1-D integer array bound to a Recorder.
type Array1D struct {
	Name string
	N    int
	data []int32
	h    *Handle
}

// NewArray1D allocates an instrumented length-n array recording into rec.
func NewArray1D(rec *Recorder, name string, n int) *Array1D {
	if n <= 0 {
		panic(fmt.Sprintf("trace: invalid array length %d", n))
	}
	return &Array1D{Name: name, N: n, data: make([]int32, n), h: rec.NewHandle(name)}
}

// Get reads element i, recording one read access.
func (a *Array1D) Get(i int) int32 {
	a.h.Read(1)
	return a.data[i]
}

// Set writes element i, recording one write access.
func (a *Array1D) Set(i int, v int32) {
	a.h.Write(1)
	a.data[i] = v
}

// Peek reads without recording.
func (a *Array1D) Peek(i int) int32 { return a.data[i] }
