// Command benchjson runs the performance-tracking benchmarks of the
// reproduction programmatically (via testing.Benchmark) and writes a
// machine-readable JSON report — the perf trajectory artifact (BENCH_N.json)
// CI uploads and future optimization PRs compare against.
//
// Usage:
//
//	benchjson [-size 256] [-bench regexp] [-out BENCH.json] [-baseline OLD.json]
//	          [-cpus 1,2,4,8] [-cluster]
//
// Each benchmark is run with and without the cross-variant evaluation cache
// where that distinction exists; the cached runs also record the session
// cache's hit/miss counters, so the report shows how much of each sweep was
// answered from the cache.
//
// -baseline embeds the previous report and annotates every matching result
// with vs_baseline percent deltas (ns/op, allocs/op, bytes/op), so the
// artifact states the regression or improvement directly instead of raw
// values only.
//
// -cluster runs the multi-node serving sweep: a single dtsed node versus a
// 3-node consistent-hash ring (in-process, so the comparison isolates the
// cache-capacity benefit of sharding), plus a leg that kills one node
// mid-run and requires zero failed requests. Results land under "cluster".
//
// -cpus runs the full exploration once per listed width — GOMAXPROCS and
// the session worker pool are both set to the width, mirroring `go test
// -cpu` — and embeds the resulting scaling curve (ns/op and speedup versus
// the 1-cpu point) in the report. The curve measures what the host actually
// provides: on a machine with fewer hardware CPUs than a listed width, the
// extra workers cannot speed anything up, which is why the report records
// hardware_cpus alongside.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/pool"
	"repro/internal/sbd"
)

// Result is one benchmark's measurements.
type Result struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	Iterations  int    `json:"iterations"`
	// Headline cost metrics of the produced organization, so a perf
	// regression that changes results is caught by the same artifact.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Cache is the session cache accounting of the last iteration (cached
	// variants only).
	Cache map[string]CacheStats `json:"cache,omitempty"`
	// VsBaseline is the percent change of each measurement against the
	// same-named benchmark of the embedded baseline report (negative =
	// improvement). Present only when -baseline was given and the baseline
	// has a matching result.
	VsBaseline *Delta `json:"vs_baseline,omitempty"`
}

// Delta is a set of percent changes versus the baseline, each computed as
// 100*(new-old)/old.
type Delta struct {
	NsPct     float64 `json:"ns_per_op_pct"`
	AllocsPct float64 `json:"allocs_per_op_pct"`
	BytesPct  float64 `json:"bytes_per_op_pct"`
}

// CacheStats mirrors memo.Stats for the JSON report.
type CacheStats struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	Waits   int64   `json:"inflight_waits"`
	Entries int     `json:"entries"`
	HitRate float64 `json:"hit_rate"`
}

// ScalingPoint is one width of the -cpus sweep.
type ScalingPoint struct {
	CPUs       int   `json:"cpus"` // GOMAXPROCS and worker pool width
	NsPerOp    int64 `json:"ns_per_op"`
	Iterations int   `json:"iterations"`
	// Speedup is ns/op of the sweep's 1-cpu point divided by this point's.
	Speedup float64 `json:"speedup_vs_1,omitempty"`
}

// Report is the full benchjson artifact.
type Report struct {
	Size int `json:"size"`
	// HardwareCPUs records what the measuring host actually had: a scaling
	// curve is only meaningful relative to the physical parallelism.
	HardwareCPUs int            `json:"hardware_cpus,omitempty"`
	Results      []Result       `json:"results"`
	Scaling      []ScalingPoint `json:"scaling,omitempty"`
	// Cluster is the -cluster multi-node serving sweep: single-node vs
	// 3-node-ring throughput on a cache-thrashing workload, plus the
	// peer-kill leg.
	Cluster []ClusterPoint `json:"cluster,omitempty"`
	// Baseline optionally embeds a previous report (the -baseline flag), so
	// one artifact carries the before/after comparison.
	Baseline *Report `json:"baseline,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func cacheStats(c *memo.Cache) map[string]CacheStats {
	if c == nil {
		return nil
	}
	out := make(map[string]CacheStats)
	for _, sp := range memo.Spaces {
		st := c.Stats(sp)
		if st.Hits+st.Misses == 0 {
			continue
		}
		out[sp.String()] = CacheStats{
			Hits: st.Hits, Misses: st.Misses, Waits: st.InflightWaits,
			Entries: st.Entries, HitRate: st.HitRate(),
		}
	}
	return out
}

// benchCase is one benchmark the emitter knows how to run.
type benchCase struct {
	name string
	run  func(size int) (testing.BenchmarkResult, map[string]float64, map[string]CacheStats, error)
}

// runAllBench runs the full methodology with or without the session cache.
func runAllBench(cached bool) func(int) (testing.BenchmarkResult, map[string]float64, map[string]CacheStats, error) {
	return func(size int) (testing.BenchmarkResult, map[string]float64, map[string]CacheStats, error) {
		var metrics map[string]float64
		var cstats map[string]CacheStats
		var innerErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ep := core.DefaultEvalParams()
				if !cached {
					ep.Memo = nil
				}
				res, err := core.RunAll(core.DemoConfig{Size: size}, ep)
				if err != nil {
					innerErr = err
					b.Fatal(err)
				}
				metrics = map[string]float64{
					"final_total_mw":     res.Final.Cost.TotalPower(),
					"final_onchip_mm2":   res.Final.Cost.OnChipArea,
					"budget_points":      float64(len(res.Budgets)),
					"allocation_points":  float64(len(res.Allocations)),
					"structuring_points": float64(len(res.Structuring)),
				}
				cstats = cacheStats(ep.Memo)
			}
		})
		return r, metrics, cstats, innerErr
	}
}

// budgetSweepBench runs the Table 3 budget sweep on a prebuilt demonstrator.
func budgetSweepBench(cached bool) func(int) (testing.BenchmarkResult, map[string]float64, map[string]CacheStats, error) {
	return func(size int) (testing.BenchmarkResult, map[string]float64, map[string]CacheStats, error) {
		ep := core.DefaultEvalParams()
		res, err := core.RunAll(core.DemoConfig{Size: size}, ep)
		if err != nil {
			return testing.BenchmarkResult{}, nil, nil, err
		}
		var metrics map[string]float64
		var cstats map[string]CacheStats
		var innerErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ep := core.DefaultEvalParams().ScaleTo(size)
				if !cached {
					ep.Memo = nil
				}
				pts, err := core.ExploreBudgets(res.HierChoice.Spec, res.Demo.CycleBudget, ep)
				if err != nil {
					innerErr = err
					b.Fatal(err)
				}
				metrics = map[string]float64{
					"budget_points":      float64(len(pts)),
					"tightest_onchip_mw": pts[len(pts)-1].Cost.OnChipPower,
				}
				cstats = cacheStats(ep.Memo)
			}
		})
		return r, metrics, cstats, innerErr
	}
}

// distributeBench runs one full storage-cycle-budget distribution.
func distributeBench(size int) (testing.BenchmarkResult, map[string]float64, map[string]CacheStats, error) {
	d, err := core.BuildDemonstrator(core.DemoConfig{Size: size})
	if err != nil {
		return testing.BenchmarkResult{}, nil, nil, err
	}
	ep := core.DefaultEvalParams().ScaleTo(size)
	var metrics map[string]float64
	var innerErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dist, err := sbd.Distribute(d.Spec, d.CycleBudget, sbd.Params{OnChipMaxWords: ep.Tech.OnChipMaxWords})
			if err != nil {
				innerErr = err
				b.Fatal(err)
			}
			metrics = map[string]float64{"patterns": float64(len(dist.Patterns))}
		}
	})
	return r, metrics, nil, innerErr
}

// pctChange returns the percent change from old to new; zero when old is
// zero (no meaningful ratio to report).
func pctChange(old, new int64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * float64(new-old) / float64(old)
}

// attachDeltas fills each result's vs_baseline percent changes from the
// same-named benchmark of the embedded baseline, so the artifact reports
// the regression/improvement directly instead of raw values only.
func attachDeltas(rep *Report) {
	if rep.Baseline == nil {
		return
	}
	byName := make(map[string]Result, len(rep.Baseline.Results))
	for _, r := range rep.Baseline.Results {
		byName[r.Name] = r
	}
	for i := range rep.Results {
		old, ok := byName[rep.Results[i].Name]
		if !ok {
			continue
		}
		rep.Results[i].VsBaseline = &Delta{
			NsPct:     pctChange(old.NsPerOp, rep.Results[i].NsPerOp),
			AllocsPct: pctChange(old.AllocsPerOp, rep.Results[i].AllocsPerOp),
			BytesPct:  pctChange(old.BytesPerOp, rep.Results[i].BytesPerOp),
		}
	}
}

// parseCPUList parses the -cpus value, a comma-separated list of widths
// like "1,2,4,8". An empty string means no scaling sweep.
func parseCPUList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, field := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			return nil, fmt.Errorf("-cpus %q: %v", s, err)
		}
		if n < 1 {
			return nil, fmt.Errorf("-cpus %q: width %d out of range (must be >= 1)", s, n)
		}
		out = append(out, n)
	}
	return out, nil
}

// scalingSweep benchmarks the full exploration once per width, with both
// GOMAXPROCS and the session worker pool set to the width (the same thing
// `go test -cpu` would do), and computes each point's speedup against the
// 1-cpu point (or the first listed width if 1 is absent).
func scalingSweep(size int, cpus []int, stderr io.Writer) ([]ScalingPoint, error) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	pts := make([]ScalingPoint, 0, len(cpus))
	for _, width := range cpus {
		runtime.GOMAXPROCS(width)
		fmt.Fprintf(stderr, "running Explore scaling point (size %d, cpus %d)...\n", size, width)
		var innerErr error
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ep := core.DefaultEvalParams()
				ep.Workers = pool.New(width)
				if _, err := core.RunAll(core.DemoConfig{Size: size}, ep); err != nil {
					innerErr = err
					b.Fatal(err)
				}
			}
		})
		if innerErr != nil {
			return nil, fmt.Errorf("scaling cpus=%d: %w", width, innerErr)
		}
		pts = append(pts, ScalingPoint{CPUs: width, NsPerOp: r.NsPerOp(), Iterations: r.N})
		fmt.Fprintf(stderr, "  cpus=%d: %d ns/op\n", width, r.NsPerOp())
	}
	base := pts[0].NsPerOp
	for _, p := range pts {
		if p.CPUs == 1 {
			base = p.NsPerOp
			break
		}
	}
	for i := range pts {
		if pts[i].NsPerOp > 0 {
			pts[i].Speedup = float64(base) / float64(pts[i].NsPerOp)
		}
	}
	return pts, nil
}

func cases() []benchCase {
	return []benchCase{
		{"Explore", runAllBench(true)},
		{"ExploreUncached", runAllBench(false)},
		{"BudgetSweep", budgetSweepBench(true)},
		{"BudgetSweepUncached", budgetSweepBench(false)},
		{"Distribute", distributeBench},
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	size := fs.Int("size", 256, "demonstrator image side length")
	benchRe := fs.String("bench", ".", "regexp selecting which benchmarks to run")
	out := fs.String("out", "", "write the JSON report to this file (default stdout)")
	baseline := fs.String("baseline", "", "embed this previous report as the before/after baseline")
	cpusFlag := fs.String("cpus", "", "comma-separated pool widths for a scaling sweep of the full exploration (e.g. 1,2,4,8)")
	clusterFlag := fs.Bool("cluster", false, "run the in-process multi-node serving sweep (single vs 3-node ring, with a peer-kill leg)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *size < 2 {
		fmt.Fprintf(stderr, "benchjson: -size %d out of range (must be >= 2)\n", *size)
		fs.Usage()
		return 2
	}
	re, err := regexp.Compile(*benchRe)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: -bench %q: %v\n", *benchRe, err)
		fs.Usage()
		return 2
	}
	cpus, err := parseCPUList(*cpusFlag)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		fs.Usage()
		return 2
	}

	rep := Report{Size: *size, HardwareCPUs: runtime.NumCPU()}
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		var base Report
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintf(stderr, "benchjson: -baseline %s: %v\n", *baseline, err)
			return 1
		}
		base.Baseline = nil // one level of history is enough
		rep.Baseline = &base
	}
	for _, c := range cases() {
		if !re.MatchString(c.name) {
			continue
		}
		fmt.Fprintf(stderr, "running %s (size %d)...\n", c.name, *size)
		r, metrics, cstats, err := c.run(*size)
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: %s: %v\n", c.name, err)
			return 1
		}
		rep.Results = append(rep.Results, Result{
			Name:        c.name,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
			Metrics:     metrics,
			Cache:       cstats,
		})
		fmt.Fprintf(stderr, "  %s: %d ns/op, %d allocs/op\n", c.name, r.NsPerOp(), r.AllocsPerOp())
	}
	if len(rep.Results) == 0 && len(cpus) == 0 && !*clusterFlag {
		fmt.Fprintf(stderr, "benchjson: -bench %q matched no benchmarks\n", *benchRe)
		return 2
	}
	if len(cpus) > 0 {
		pts, err := scalingSweep(*size, cpus, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		rep.Scaling = pts
	}
	if *clusterFlag {
		pts, err := clusterSweep(stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		rep.Cluster = pts
	}

	attachDeltas(&rep)
	for _, r := range rep.Results {
		if d := r.VsBaseline; d != nil {
			fmt.Fprintf(stderr, "  %s vs baseline: ns/op %+.1f%%, allocs/op %+.1f%%, bytes/op %+.1f%%\n",
				r.Name, d.NsPct, d.AllocsPct, d.BytesPct)
		}
	}

	w := stdout
	var f *os.File
	if *out != "" {
		f, err = os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	if f != nil {
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		fmt.Fprintf(stderr, "(report written to %s)\n", *out)
	}
	return 0
}
