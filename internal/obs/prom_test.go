package obs

import (
	"strconv"
	"strings"
	"testing"
)

func TestPromCounterGaugeRendering(t *testing.T) {
	var b strings.Builder
	p := NewProm(&b, "dtse")
	p.Counter("server.requests", 7)
	p.Counter(Label("memo.hits", "space", "ports"), 3)
	p.Counter(Label("memo.hits", "space", "schedule"), 5)
	p.Gauge("server.inflight", 2)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE dtse_server_requests_total counter
dtse_server_requests_total 7
# TYPE dtse_memo_hits_total counter
dtse_memo_hits_total{space="ports"} 3
dtse_memo_hits_total{space="schedule"} 5
# TYPE dtse_server_inflight gauge
dtse_server_inflight 2
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestPromTypeHeaderOncePerFamily(t *testing.T) {
	var b strings.Builder
	p := NewProm(&b, "x")
	p.Counter(Label("c", "k", "a"), 1)
	p.Counter(Label("c", "k", "b"), 2)
	if got := strings.Count(b.String(), "# TYPE"); got != 1 {
		t.Errorf("%d TYPE headers for one family, want 1:\n%s", got, b.String())
	}
}

func TestPromNameSanitation(t *testing.T) {
	cases := map[string]string{
		"server.requests": "server_requests",
		"a-b/c d":         "a_b_c_d",
		"ok_name:sub":     "ok_name:sub",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
	if got := escapeLabel("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Errorf("escapeLabel = %q", got)
	}
}

func TestPromHistogramSeries(t *testing.T) {
	h := NewHistogram()
	h.ObserveUS(1)       // bucket 0 (<= 1µs)
	h.ObserveUS(1000000) // 1s -> bucket 20 (2^20µs ≈ 1.05s)
	var b strings.Builder
	p := NewProm(&b, "dtse")
	p.HistogramSeries("request_duration", "", h.Snapshot())
	out := b.String()
	if !strings.HasPrefix(out, "# TYPE dtse_request_duration_seconds histogram\n") {
		t.Fatalf("missing TYPE line:\n%s", out)
	}
	for _, want := range []string{
		`dtse_request_duration_seconds_bucket{le="1e-06"} 1`,    // 1µs bound
		`dtse_request_duration_seconds_bucket{le="1.048576"} 2`, // 2^20µs bound
		`dtse_request_duration_seconds_bucket{le="+Inf"} 2`,
		`dtse_request_duration_seconds_sum 1.000001`,
		`dtse_request_duration_seconds_count 2`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Bucket lines must be monotone non-decreasing in both bound and count.
	lines := strings.Split(out, "\n")
	prev := int64(-1)
	buckets := 0
	for _, l := range lines {
		if !strings.HasPrefix(l, "dtse_request_duration_seconds_bucket") {
			continue
		}
		buckets++
		c, err := strconv.ParseInt(l[strings.LastIndexByte(l, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparsable bucket line %q: %v", l, err)
		}
		if c < prev {
			t.Fatalf("bucket counts not monotone: %q after %d", l, prev)
		}
		prev = c
	}
	if buckets != histBuckets+1 {
		t.Errorf("%d bucket lines, want %d finite + Inf", buckets, histBuckets+1)
	}
}

func TestPromWriteSnapshotLabeledHistogramAndStages(t *testing.T) {
	o := New()
	o.Counter("server.requests").Add(2)
	o.Gauge(Label("memo.entries", "space", "ports")).Set(4)
	o.Histogram(Label("memo.lookup", "space", "ports")).ObserveUS(8)
	sp := o.Start("sbd")
	sp.End()

	var b strings.Builder
	p := NewProm(&b, "dtse")
	p.WriteSnapshot(o.Snapshot())
	out := b.String()
	if !strings.Contains(out, "dtse_server_requests_total 2\n") {
		t.Errorf("counter missing:\n%s", out)
	}
	if !strings.Contains(out, `dtse_memo_entries{space="ports"} 4`) {
		t.Errorf("labeled gauge missing:\n%s", out)
	}
	if !strings.Contains(out, `dtse_memo_lookup_seconds_count{space="ports"} 1`) {
		t.Errorf("labeled histogram missing:\n%s", out)
	}
	if !strings.Contains(out, `dtse_stage_duration_seconds_count{stage="sbd"} 1`) {
		t.Errorf("stage histogram missing:\n%s", out)
	}
	// The zero snapshot (a nil observer's) writes nothing.
	var nb strings.Builder
	NewProm(&nb, "dtse").WriteSnapshot((*Observer)(nil).Snapshot())
	if nb.Len() != 0 {
		t.Errorf("nil observer produced output: %q", nb.String())
	}
}
