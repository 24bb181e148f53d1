// Command specexplore runs the physical memory management stage on a
// pruned specification given as JSON — the designer's entry point for
// applications other than the built-in BTPC demonstrator.
//
// Usage:
//
//	specexplore -budget 20000000 [-onchip 4] [-threshold 65536]
//	            [-frame 1.0] [-timeout 30s] [-inplace] [-interconnect]
//	            [-lifetimes] [-trace out.jsonl] [-stats] [-cache-dir DIR]
//	            spec.json
//
// With -cache-dir, a proven-optimal run's output is persisted to an
// append-only log in DIR and identical later invocations replay it
// byte-for-byte without exploring (noted on stderr).
//
// -timeout bounds the exploration: on expiry (or SIGINT/SIGTERM) the stage
// returns its best-effort organization — the branch-and-bound incumbent,
// reported as "not proven optimal" — instead of aborting.
//
// The specification format is documented in internal/spec (see
// TestJSONHandWrittenSpec for a minimal example).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/inplace"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/spec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// validateFlags rejects knob values that would otherwise produce silent
// nonsense downstream (core.SpecKnobs.Check), worded as flags.
func validateFlags(onchip int, threshold int64, frame float64) error {
	if r := (core.SpecKnobs{OnChip: onchip, Threshold: threshold, Frame: frame}).Check(); r != nil {
		return fmt.Errorf("specexplore: -%s %s out of range (%s)", r.Knob, r.Value, r.Rule)
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("specexplore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	budget := fs.Uint64("budget", 0, "storage cycle budget per frame (required)")
	def := core.DefaultSpecKnobs()
	onchip := fs.Int("onchip", def.OnChip, "number of on-chip memories to allocate")
	threshold := fs.Int64("threshold", def.Threshold, "words above which a group lives off-chip")
	frame := fs.Float64("frame", def.Frame, "frame period in seconds (for access rates)")
	timeout := fs.Duration("timeout", 0, "bound the exploration; on expiry results degrade to best-effort (0 = none)")
	inplaceF := fs.Bool("inplace", false, "enable the in-place mapping extension")
	interconnect := fs.Bool("interconnect", false, "enable the bus interconnect model")
	lifetimes := fs.Bool("lifetimes", false, "print the lifetime analysis and exit")
	traceOut := fs.String("trace", "", "write the exploration telemetry (JSONL spans + counters) to this file")
	stats := fs.Bool("stats", false, "print the per-step telemetry summary to stderr")
	cacheDir := fs.String("cache-dir", "", "persist completed results to an append-only log in this directory; identical later runs are answered from it")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if err := validateFlags(*onchip, *threshold, *frame); err != nil {
		fmt.Fprintln(stderr, err)
		fs.Usage()
		return 2
	}
	if *timeout < 0 {
		fmt.Fprintf(stderr, "specexplore: -timeout %v out of range (must be >= 0)\n", *timeout)
		fs.Usage()
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "specexplore: expected exactly one spec file, got %d args\n", fs.NArg())
		fs.Usage()
		return 2
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "specexplore:", err)
		return 1
	}
	defer f.Close()
	s, err := spec.ReadJSON(f)
	if err != nil {
		fmt.Fprintln(stderr, "specexplore:", err)
		return 1
	}

	// Disk result cache: keyed by the canonical spec serialization plus
	// every output-shaping flag, so whitespace or field order in the spec
	// file cannot defeat a hit. Only proven-optimal completed runs are
	// stored; a hit replays their stdout byte-for-byte.
	var disk *memo.DiskTier
	var diskKey memo.Key
	var captured *bytes.Buffer
	if *cacheDir != "" {
		var canon bytes.Buffer
		if err := s.WriteJSON(&canon); err != nil {
			fmt.Fprintln(stderr, "specexplore:", err)
			return 1
		}
		d, err := memo.OpenDiskTier(*cacheDir)
		if err != nil {
			fmt.Fprintln(stderr, "specexplore:", err)
			return 1
		}
		defer d.Close()
		disk = d
		key := fmt.Appendf(nil, "specexplore|1|%d|%d|%d|%g|%t|%t|%t|%s",
			*budget, *onchip, *threshold, *frame, *inplaceF, *interconnect, *lifetimes, canon.Bytes())
		diskKey = memo.NewKey(key, memo.Fingerprint64(key))
		if body, ok := disk.Get(memo.Requests, diskKey); ok {
			stdout.Write(body)
			fmt.Fprintf(stderr, "(result served from %s)\n", disk.Path())
			return 0
		}
		captured = &bytes.Buffer{}
		stdout = io.MultiWriter(stdout, captured)
	}

	fmt.Fprintf(stdout, "spec %q: %d basic groups, %d loops, %d accesses/frame\n",
		s.Name, len(s.Groups), len(s.Loops), s.TotalAccesses())

	if *lifetimes {
		fmt.Fprint(stdout, inplace.Report(s))
		return 0
	}
	if *budget == 0 {
		fmt.Fprintln(stderr, "specexplore: -budget is required")
		fs.Usage()
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var sinks []obs.Sink
	var traceFile *os.File
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "specexplore:", err)
			return 1
		}
		traceFile = tf
		sinks = append(sinks, obs.NewJSONL(tf))
	}
	var collector *obs.Collector
	if *stats {
		collector = obs.NewCollector()
		sinks = append(sinks, collector)
	}
	var observer *obs.Observer
	if len(sinks) > 0 {
		observer = obs.New(sinks...)
	}

	ep := core.DefaultEvalParams().WithSpecKnobs(core.SpecKnobs{
		OnChip: *onchip, Threshold: *threshold, Frame: *frame,
		InPlace: *inplaceF, Interconnect: *interconnect,
	})
	ep.Obs = observer

	v, err := core.EvaluateContext(ctx, s, *budget, s.Name, ep)
	if err != nil {
		fmt.Fprintln(stderr, "specexplore:", err)
		return 1
	}
	if ctx.Err() != nil || !v.Asgn.Optimal {
		fmt.Fprintln(stderr, "specexplore: exploration cut short: organization is best-effort, not proven optimal")
	}
	fmt.Fprintf(stdout, "budget %d cycles, committed %d (%d spare for the data-path)\n",
		*budget, v.Dist.Used, v.Dist.ExtraCycles())
	fmt.Fprintf(stdout, "cost: %.2f mm² on-chip area, %.2f mW on-chip, %.2f mW off-chip\n",
		v.Cost.OnChipArea, v.Cost.OnChipPower, v.Cost.OffChipPower)
	for _, b := range v.Asgn.OnChip {
		fmt.Fprintf(stdout, "  %-8s %8d x %2d bit %d-port %8.2f mm² %8.2f mW: %v\n",
			b.Mem.Name, b.Mem.Words, b.Mem.Bits, b.Mem.Ports, b.Area, b.Power, b.Groups)
	}
	for _, b := range v.Asgn.OffChip {
		fmt.Fprintf(stdout, "  %-22s %d-port %8.2f mW: %v\n",
			b.Mem.Name, b.Mem.Ports, b.Power, b.Groups)
	}

	if err := observer.Flush(); err != nil {
		fmt.Fprintln(stderr, "specexplore:", err)
		return 1
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fmt.Fprintln(stderr, "specexplore:", err)
			return 1
		}
		fmt.Fprintf(stderr, "(telemetry trace written to %s)\n", *traceOut)
	}
	if collector != nil {
		fmt.Fprintf(stderr, "\nExploration telemetry:\n%s", obs.StatsTable(collector.Records()))
		fmt.Fprintf(stderr, "\nStage latency histograms:\n%s", obs.HistTable(observer.Snapshot()))
		fmt.Fprintf(stderr, "\nCounters:\n%s", obs.CounterTable(observer.Snapshot()))
	}
	if disk != nil && ctx.Err() == nil && v.Asgn.Optimal {
		disk.Put(memo.Requests, diskKey, captured.Bytes())
		if err := disk.Close(); err != nil { // flush write-behind before exit
			fmt.Fprintln(stderr, "specexplore:", err)
		}
	}
	return 0
}
