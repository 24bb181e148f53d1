package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestSpanTreeCollector(t *testing.T) {
	c := NewCollector()
	o := New(c)
	root := o.Start("run")
	root.SetStr("cfg", "x")
	child := root.Child("step")
	child.SetInt("n", 7)
	grand := child.Child("inner")
	grand.End()
	child.End()
	root.End()

	recs := c.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	// Spans emit on End: innermost first, root last.
	if recs[0].Name != "inner" || recs[1].Name != "step" || recs[2].Name != "run" {
		t.Fatalf("emission order wrong: %s %s %s", recs[0].Name, recs[1].Name, recs[2].Name)
	}
	byName := map[string]*SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["run"].Parent != 0 {
		t.Fatalf("root has parent %d", byName["run"].Parent)
	}
	if byName["step"].Parent != byName["run"].ID {
		t.Fatal("step not a child of run")
	}
	if byName["inner"].Parent != byName["step"].ID {
		t.Fatal("inner not a child of step")
	}
	if byName["step"].Fields["n"] != any(int64(7)) {
		t.Fatalf("field n = %v", byName["step"].Fields["n"])
	}
	if byName["run"].WallUS < byName["step"].WallUS {
		t.Fatal("root wall time below its child's")
	}
	if got := c.Find("step"); len(got) != 1 {
		t.Fatalf("Find(step) = %d records", len(got))
	}
}

// TestJSONLGoldenSchema pins the JSONL trace schema: line envelope, field
// names, and parent/child nesting. Downstream jq recipes (README) and any
// future trace tooling depend on these exact keys.
func TestJSONLGoldenSchema(t *testing.T) {
	var buf bytes.Buffer
	o := New(NewJSONL(&buf))
	root := o.Start("run_all")
	child := root.Child("step.macp")
	child.SetInt("weighted_macp", 42)
	child.SetStr("note", "ok")
	child.SetFloat("frac", 0.5)
	child.End()
	root.End()
	o.Counter("core.evaluations").Add(3)
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}

	var lines []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3 (2 spans + counters)", len(lines))
	}

	keysOf := func(m map[string]any) string {
		ks := make([]string, 0, len(m))
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return strings.Join(ks, ",")
	}
	// Child span: ends first, carries parent and fields.
	if got, want := keysOf(lines[0]), "alloc_bytes,fields,id,name,parent,start_us,type,wall_us"; got != want {
		t.Fatalf("child span keys = %s, want %s", got, want)
	}
	if lines[0]["type"] != "span" || lines[0]["name"] != "step.macp" {
		t.Fatalf("child line = %v", lines[0])
	}
	fields := lines[0]["fields"].(map[string]any)
	if fields["weighted_macp"] != float64(42) || fields["note"] != "ok" || fields["frac"] != 0.5 {
		t.Fatalf("fields = %v", fields)
	}
	// Root span: no parent key (omitempty), no fields.
	if got, want := keysOf(lines[1]), "alloc_bytes,id,name,start_us,type,wall_us"; got != want {
		t.Fatalf("root span keys = %s, want %s", got, want)
	}
	if lines[1]["name"] != "run_all" {
		t.Fatalf("root line = %v", lines[1])
	}
	if lines[0]["parent"] != lines[1]["id"] {
		t.Fatalf("child parent %v != root id %v", lines[0]["parent"], lines[1]["id"])
	}
	// Counters line.
	if got, want := keysOf(lines[2]), "counters,type"; got != want {
		t.Fatalf("counters keys = %s, want %s", got, want)
	}
	if lines[2]["type"] != "counters" {
		t.Fatalf("trailer type = %v", lines[2]["type"])
	}
	cs := lines[2]["counters"].(map[string]any)
	if cs["core.evaluations"] != float64(3) {
		t.Fatalf("counters = %v", cs)
	}
}

// TestNilObserverZeroAllocs asserts the no-op path costs nothing: with
// telemetry off, the instrumented pipeline must not allocate.
func TestNilObserverZeroAllocs(t *testing.T) {
	var o *Observer
	allocs := testing.AllocsPerRun(200, func() {
		sp := o.Start("root")
		ch := sp.Child("child")
		ch.SetInt("k", 1)
		ch.SetStr("s", "v")
		ch.SetFloat("f", 2.5)
		ch.End()
		sp.End()
		o.Counter("n").Add(1)
		o.Gauge("g").Set(2)
		_ = sp.Observer().Counter("m")
		_ = o.Counters()
		_ = o.Flush()
	})
	if allocs != 0 {
		t.Fatalf("nil-observer path allocates %.0f bytes/op, want 0", allocs)
	}
}

func TestCountersAndGauges(t *testing.T) {
	o := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := o.Counter("hits")
			for j := 0; j < 1000; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	o.Gauge("depth").Set(5)
	o.Gauge("depth").Set(3)
	snap := o.Counters()
	if snap["hits"] != 8000 {
		t.Fatalf("hits = %d, want 8000", snap["hits"])
	}
	if snap["depth"] != 3 {
		t.Fatalf("depth = %d, want 3 (last value)", snap["depth"])
	}
	if o.Counter("hits").Value() != 8000 {
		t.Fatal("Value mismatch")
	}
}

func TestConcurrentChildSpans(t *testing.T) {
	c := NewCollector()
	o := New(c)
	root := o.Start("sweep")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := root.Child("evaluate")
			sp.SetInt("i", 1)
			sp.End()
		}()
	}
	wg.Wait()
	root.End()
	recs := c.Records()
	if len(recs) != 17 {
		t.Fatalf("got %d records, want 17", len(recs))
	}
	seen := map[uint64]bool{}
	for _, r := range recs {
		if seen[r.ID] {
			t.Fatalf("duplicate span id %d", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	c := NewCollector()
	o := New(c)
	sp := o.Start("x")
	sp.End()
	sp.End()
	if got := len(c.Records()); got != 1 {
		t.Fatalf("double End emitted %d records", got)
	}
}

func TestLabel(t *testing.T) {
	if got := Label("a.b"); got != "a.b" {
		t.Fatalf("Label no-kv = %q", got)
	}
	if got := Label("a.b", "k", "v"); got != "a.b{k=v}" {
		t.Fatalf("Label = %q", got)
	}
	if got := Label("a", "k1", "v1", "k2", "v2"); got != "a{k1=v1,k2=v2}" {
		t.Fatalf("Label = %q", got)
	}
	if got := Label("a", "odd"); got != "a" {
		t.Fatalf("Label odd kv = %q", got)
	}
}

func TestStatsTable(t *testing.T) {
	c := NewCollector()
	o := New(c)
	root := o.Start("run_all")
	s1 := root.Child("step.structuring")
	e := s1.Child("evaluate")
	e.End()
	s1.End()
	s2 := root.Child("step.budget")
	s2.End()
	s2b := root.Child("step.budget")
	s2b.End()
	root.End()

	out := StatsTable(c.Records())
	for _, want := range []string{"step.structuring", "step.budget", "total (run_all)", "%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats table missing %q:\n%s", want, out)
		}
	}
	// The two step.budget spans merge into one row with calls=2.
	if n := strings.Count(out, "step.budget"); n != 1 {
		t.Fatalf("step.budget appears %d times, want merged row:\n%s", n, out)
	}
	if StatsTable(nil) != "(no spans recorded)\n" {
		t.Fatal("empty record set not handled")
	}
}

func TestCounterTable(t *testing.T) {
	o := New()
	if got := CounterTable(o.Snapshot()); got != "(no counters recorded)\n" {
		t.Fatalf("empty snapshot: %q", got)
	}
	o.Counter("sbd.trials").Add(40)
	o.Counter("sbd.trials_conflict_free").Add(33)
	o.Gauge("pool.workers").Set(2)
	out := CounterTable(o.Snapshot())
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want a header and 3 rows:\n%s", out)
	}
	for i, want := range []string{"counter", "sbd.trials ", "sbd.trials_conflict_free ", "pool.workers "} {
		if !strings.HasPrefix(lines[i], want) {
			t.Fatalf("line %d = %q, want prefix %q", i, lines[i], want)
		}
	}
	if !strings.HasSuffix(lines[2], " 33") {
		t.Fatalf("row %q does not end in its value", lines[2])
	}
}

func TestFmtHelpers(t *testing.T) {
	if got := fmtBytes(512); got != "512B" {
		t.Fatalf("fmtBytes(512) = %q", got)
	}
	if got := fmtBytes(2 << 20); got != "2.0MB" {
		t.Fatalf("fmtBytes(2MB) = %q", got)
	}
	if got := fmtBytes(3 << 30); got != "3.0GB" {
		t.Fatalf("fmtBytes(3GB) = %q", got)
	}
	if got := fmtBytes(4 << 10); got != "4.0KB" {
		t.Fatalf("fmtBytes(4KB) = %q", got)
	}
}
