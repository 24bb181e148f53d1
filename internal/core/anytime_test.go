package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/btpc"
	"repro/internal/img"
	"repro/internal/pool"
	"repro/internal/reuse"
	"repro/internal/sbd"
	"repro/internal/trace"
)

// TestEvaluateContextCanceled: a canceled context must still produce a
// complete variant — distribution, assignment, cost — flagged non-optimal.
func TestEvaluateContextCanceled(t *testing.T) {
	d, err := BuildDemonstrator(DemoConfig{Size: 128})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v, err := EvaluateContext(ctx, d.Spec, d.CycleBudget, "canceled", DefaultEvalParams().ScaleTo(128))
	if err != nil {
		t.Fatal(err)
	}
	if v.Dist == nil || v.Asgn == nil {
		t.Fatal("degraded variant missing distribution or assignment")
	}
	if !v.Dist.Degraded {
		t.Fatal("canceled distribution not flagged Degraded")
	}
	if v.Asgn.Optimal {
		t.Fatal("canceled assignment claims optimality")
	}
	if v.Cost.TotalPower() <= 0 {
		t.Fatalf("degraded variant has no cost: %+v", v.Cost)
	}
}

// TestRunAllContextCanceled runs the whole methodology under an
// already-canceled context: every step must degrade to a best-effort result
// rather than fail, and the final organization must be flagged non-optimal.
// The profiling encode is not cancelable, so the wall-clock bound covers
// everything after it.
func TestRunAllContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := RunAllContext(ctx, DemoConfig{Size: 64}, DefaultEvalParams().ScaleTo(64))
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("canceled RunAll took %v", el)
	}
	if res.Final == nil || res.Final.Asgn == nil {
		t.Fatal("degraded run has no final organization")
	}
	if res.Final.Asgn.Optimal {
		t.Fatal("canceled run claims a proven-optimal final organization")
	}
	// Each table must still have at least its reference row.
	if len(res.Structuring) == 0 || len(res.Hierarchy) == 0 ||
		len(res.Budgets) == 0 || len(res.Allocations) == 0 {
		t.Fatalf("degraded run dropped a whole table: %d/%d/%d/%d rows",
			len(res.Structuring), len(res.Hierarchy), len(res.Budgets), len(res.Allocations))
	}
	if res.StructChoice == nil || res.HierChoice == nil ||
		res.BudgetChoice == nil || res.AllocChoice == nil {
		t.Fatal("degraded run left a step without a choice")
	}
}

// TestRunAllContextUncanceledMatchesRunAll: threading a background context
// through must not change the result of an unconstrained run.
func TestRunAllContextUncanceledMatchesRunAll(t *testing.T) {
	ep := DefaultEvalParams().ScaleTo(64)
	a, err := RunAll(DemoConfig{Size: 64}, ep)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAllContext(context.Background(), DemoConfig{Size: 64}, ep)
	if err != nil {
		t.Fatal(err)
	}
	if a.Final.Cost != b.Final.Cost {
		t.Fatalf("context-threaded run diverged: %+v vs %+v", a.Final.Cost, b.Final.Cost)
	}
	if !a.Final.Asgn.Optimal || !b.Final.Asgn.Optimal {
		t.Fatal("unconstrained run not proven optimal")
	}
}

// TestExploreAllocationsContextCanceledKeepsFirst: the Table 4 sweep under
// a canceled context launches no count after the first, on the sequential
// path (no pool) and on a pool alike, and still returns that first row; a
// live context evaluates every count, so the check is not vacuous.
func TestExploreAllocationsContextCanceledKeepsFirst(t *testing.T) {
	d, err := BuildDemonstrator(DemoConfig{Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	ep := DefaultEvalParams().ScaleTo(64)
	dist, err := sbd.DistributeContext(context.Background(), d.Spec, d.CycleBudget, ep.sbdParams())
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{4, 5, 8, 10}
	if _, ok, err := ExploreAllocationsContext(context.Background(), d.Spec, dist, counts, ep); err != nil || len(ok) != len(counts) {
		t.Fatalf("live sweep returned counts %v (err %v), want %v", ok, err, counts)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []*pool.Pool{nil, pool.New(4)} {
		ep.Workers = workers
		vs, ok, err := ExploreAllocationsContext(ctx, d.Spec, dist, counts, ep)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != 1 || len(ok) != 1 || ok[0] != counts[0] {
			t.Fatalf("canceled sweep (pool %v) returned counts %v, want just %d", workers != nil, ok, counts[0])
		}
	}
}

// flatSink is a trace.AddressSink that copies the trace it is handed and
// gives each chunk back to be refilled.
type flatSink struct{ flat []int32 }

func (s *flatSink) Extent(int)              {}
func (s *flatSink) Chunk(c []int32) []int32 { s.flat = append(s.flat, c...); return c[:0] }
func (s *flatSink) Close()                  {}

// TestRunAllReuseStreamCanceled: under a context that is dead from the start
// or expires mid-stream, at pool widths 1 and 2, RunAllContext still
// completes the profiling encode — the pruned spec is the live run's — and
// the image reuse profile is that of a processed prefix of the image read
// trace, ending at a poll point of the analysis.
func TestRunAllReuseStreamCanceled(t *testing.T) {
	const size = 128
	rec := trace.NewRecorder()
	var sink flatSink
	rec.StreamAddressTrace("image", &sink)
	if _, _, err := btpc.Encode(img.Synthetic(size, size, 1), btpc.Params{Quant: 1}, rec); err != nil {
		t.Fatal(err)
	}
	rec.CloseAddressTrace("image")
	flat := sink.flat
	const poll = 64 * 1024 // the analysis's cancellation-poll stride
	if len(flat) <= poll {
		t.Fatalf("trace of %d addresses ends before the first poll point", len(flat))
	}
	live, err := BuildDemonstrator(DemoConfig{Size: size})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		for _, timeout := range []time.Duration{0, time.Millisecond} {
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			ep := DefaultEvalParams().ScaleTo(size)
			ep.Workers = pool.New(workers)
			res, err := RunAllContext(ctx, DemoConfig{Size: size}, ep)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Demo.Spec, live.Spec) {
				t.Fatalf("workers %d, timeout %v: the pruned spec differs from the live run's", workers, timeout)
			}
			p := res.Demo.ImageProfile
			n := int(p.Total())
			if n > len(flat) || (n%poll != 0 && n != len(flat)) || (timeout == 0 && n != poll) {
				t.Fatalf("workers %d, timeout %v: profiled %d of %d addresses", workers, timeout, n, len(flat))
			}
			// The run's stream is as deep as its yhier layer; DeepEqual
			// compares the depth too.
			_, yhier := HierarchyLayers(size)
			an := reuse.NewStream(context.Background(), nil, int(yhier.Words))
			an.Extent(size * size)
			an.Chunk(flat[:n])
			an.Close()
			if want := an.Profile(); !reflect.DeepEqual(p, want) {
				t.Fatalf("workers %d, timeout %v: the profile is not that of the %d-address prefix", workers, timeout, n)
			}
		}
	}
}
