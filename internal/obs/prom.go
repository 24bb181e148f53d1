package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prom writes the Prometheus text exposition format (version 0.0.4). It
// translates the package's dotted metric names and Label brace syntax into
// Prometheus families: dots become underscores, a namespace prefix is
// applied, counters gain the _total suffix, histograms are exposed in
// seconds with the conventional _bucket/_sum/_count series. Samples of one
// family must be written consecutively (the exposition format requires it);
// the writer emits each family's # TYPE header when the family changes.
//
// All output is deterministic for a given metric state: callers feed it
// sorted name lists (WriteSnapshot does), so scrapes diff cleanly and the
// exposition golden test can pin the format.
type Prom struct {
	w          io.Writer
	ns         string
	err        error
	lastFamily string
}

// NewProm returns a writer emitting metrics under the given namespace
// prefix (e.g. "dtse").
func NewProm(w io.Writer, namespace string) *Prom {
	return &Prom{w: w, ns: namespace}
}

// Err returns the first write error encountered.
func (p *Prom) Err() error { return p.err }

func (p *Prom) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// family emits the # TYPE header if this family was not the previous one.
func (p *Prom) family(name, typ string) {
	if name == p.lastFamily {
		return
	}
	p.lastFamily = name
	p.printf("# TYPE %s %s\n", name, typ)
}

// promName maps a dotted metric name onto the Prometheus charset
// [a-zA-Z0-9_:].
func promName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// splitName parses the Label brace syntax: "memo.hits{space=ports}" becomes
// base "memo.hits" and rendered labels `space="ports"`.
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	base = name[:i]
	var b strings.Builder
	for j, pair := range strings.Split(name[i+1:len(name)-1], ",") {
		k, v, _ := strings.Cut(pair, "=")
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, promName(k), escapeLabel(v))
	}
	return base, b.String()
}

// seconds renders a microsecond quantity as seconds in the shortest exact
// float form.
func seconds(us int64) string {
	return strconv.FormatFloat(float64(us)/1e6, 'g', -1, 64)
}

func brace(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// Counter writes one counter sample. The name may carry Label braces; the
// family becomes <ns>_<base>_total.
func (p *Prom) Counter(name string, v int64) {
	base, labels := splitName(name)
	fam := p.ns + "_" + promName(base) + "_total"
	p.family(fam, "counter")
	p.printf("%s%s %d\n", fam, brace(labels), v)
}

// Gauge writes one gauge sample under family <ns>_<base>.
func (p *Prom) Gauge(name string, v int64) {
	base, labels := splitName(name)
	fam := p.ns + "_" + promName(base)
	p.family(fam, "gauge")
	p.printf("%s%s %d\n", fam, brace(labels), v)
}

// GaugeF writes one float gauge sample under family <ns>_<base>, in the
// shortest exact form (the runtime pause gauges are fractional seconds).
func (p *Prom) GaugeF(name string, v float64) {
	base, labels := splitName(name)
	fam := p.ns + "_" + promName(base)
	p.family(fam, "gauge")
	p.printf("%s%s %s\n", fam, brace(labels), strconv.FormatFloat(v, 'g', -1, 64))
}

// Histogram writes one histogram series under family <ns>_<base>_seconds,
// with any Label braces on the name becoming series labels.
func (p *Prom) Histogram(name string, s HistogramSnapshot) {
	base, labels := splitName(name)
	p.HistogramSeries(promName(base), labels, s)
}

// HistogramSeries writes one histogram series under family
// <ns>_<family>_seconds with the given pre-rendered labels (`k="v",...`,
// possibly empty). Bucket bounds are the histogram's power-of-two
// microsecond bounds converted to seconds.
func (p *Prom) HistogramSeries(family, labels string, s HistogramSnapshot) {
	fam := p.ns + "_" + family + "_seconds"
	p.family(fam, "histogram")
	sep := ""
	if labels != "" {
		sep = ","
	}
	for i, c := range s.Cumulative {
		p.printf("%s_bucket{%s%sle=\"%s\"} %d\n", fam, labels, sep, seconds(BucketBoundUS(i)), c)
	}
	p.printf("%s_bucket{%s%sle=\"+Inf\"} %d\n", fam, labels, sep, s.Count)
	p.printf("%s_sum%s %s\n", fam, brace(labels), seconds(s.SumUS))
	p.printf("%s_count%s %d\n", fam, brace(labels), s.Count)
}

// WriteSnapshot writes an observer snapshot — counters, gauges, explicit
// histograms, and the per-stage span-duration histograms (as one
// <ns>_stage_duration_seconds family labeled by stage) — in sorted,
// deterministic order.
func (p *Prom) WriteSnapshot(snap Snapshot) {
	for _, name := range sortedKeys(snap.Counters) {
		p.Counter(name, snap.Counters[name])
	}
	for _, name := range sortedKeys(snap.Gauges) {
		p.Gauge(name, snap.Gauges[name])
	}
	for _, name := range sortedKeys(snap.Histograms) {
		p.Histogram(name, snap.Histograms[name])
	}
	for _, name := range sortedKeys(snap.Stages) {
		p.HistogramSeries("stage_duration", fmt.Sprintf(`stage="%s"`, escapeLabel(name)), snap.Stages[name])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
