package sbd

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/memo"
)

// TestDistributeContextCanceled: an already-canceled context must still
// produce a feasible distribution — every loop scheduled at its minimum
// budget — flagged Degraded, without errors.
func TestDistributeContextCanceled(t *testing.T) {
	s := fanInSpec(t, 5, 10, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d, err := DistributeContext(ctx, s, 40_000, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Degraded {
		t.Fatal("canceled distribution not flagged Degraded")
	}
	if len(d.Loops) != len(s.Loops) {
		t.Fatalf("%d loop schedules for %d loops", len(d.Loops), len(s.Loops))
	}
	if d.Used > d.TotalBudget {
		t.Fatalf("used %d exceeds budget %d", d.Used, d.TotalBudget)
	}
	for _, ls := range d.Loops {
		if ls == nil || len(ls.Start) == 0 {
			t.Fatalf("loop %v has no schedule", ls)
		}
	}
	// Full exploration with the same generous budget reaches cost 0
	// (TestDistributeSpendsWhereItHelps); the degraded result may be worse
	// but must never be better than the optimum.
	full, err := DistributeContext(context.Background(), s, 40_000, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Cost < full.Cost {
		t.Fatalf("degraded cost %.1f below full exploration cost %.1f", d.Cost, full.Cost)
	}
}

// TestDistributeContextCanceledStillInfeasible: cancellation must not mask
// real infeasibility — a budget below the weighted MACP errors either way.
func TestDistributeContextCanceledStillInfeasible(t *testing.T) {
	s := fanInSpec(t, 4, 5, 1000) // weighted MACP = 7 * 1000
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DistributeContext(ctx, s, 6999, Params{}); err == nil {
		t.Fatal("budget below MACP accepted under canceled context")
	}
}

// TestDistributeContextIsFast: the ~100ms acceptance bound at the sbd layer.
func TestDistributeContextIsFast(t *testing.T) {
	s := fanInSpec(t, 8, 30, 100_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := DistributeContext(ctx, s, 5_000_000, Params{}); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("canceled DistributeContext took %v, want < 100ms", el)
	}
}

// TestDegradedScheduleDoesNotPoisonSession: a deadline-degraded
// distribution computed on a shared session cache must not leak its
// best-effort schedules into the cache — a later full-budget distribution
// on the same session must match a fresh, uncached one exactly.
func TestDegradedScheduleDoesNotPoisonSession(t *testing.T) {
	s := fanInSpec(t, 5, 10, 1000)
	session := memo.New(memo.Schedule)

	// 1. Tight-deadline exploration on the shared session (context already
	// expired: every committed schedule skips its improvement passes).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	degraded, err := DistributeContext(ctx, s, 40_000, Params{Memo: session})
	if err != nil {
		t.Fatal(err)
	}
	if !degraded.Degraded {
		t.Fatal("tight-deadline distribution not flagged Degraded")
	}
	anyCut := false
	for _, ls := range degraded.Loops {
		anyCut = anyCut || ls.Degraded
	}
	if !anyCut {
		t.Fatal("no committed schedule carries the Degraded flag under a dead context")
	}

	// 2. Full-budget exploration on the SAME session.
	warm, err := DistributeContext(context.Background(), s, 40_000, Params{Memo: session})
	if err != nil {
		t.Fatal(err)
	}

	// 3. Reference: the same exploration with no cache at all.
	plain, err := DistributeContext(context.Background(), s, 40_000, Params{})
	if err != nil {
		t.Fatal(err)
	}

	if warm.Degraded {
		t.Fatal("full-budget run flagged Degraded")
	}
	if warm.Used != plain.Used || warm.Cost != plain.Cost {
		t.Fatalf("session poisoned: warm used=%d cost=%.1f, plain used=%d cost=%.1f",
			warm.Used, warm.Cost, plain.Used, plain.Cost)
	}
	if !reflect.DeepEqual(warm.Patterns, plain.Patterns) {
		t.Fatalf("session poisoned: patterns differ\nwarm:  %v\nplain: %v", warm.Patterns, plain.Patterns)
	}
	for i := range warm.Loops {
		w, p := warm.Loops[i], plain.Loops[i]
		if w.Budget != p.Budget || w.Cost != p.Cost || !reflect.DeepEqual(w.Start, p.Start) || w.Degraded {
			t.Fatalf("session poisoned: loop %d schedule differs (or is degraded): warm %+v plain %+v", i, w, p)
		}
	}
}

// TestDegradedScheduleNotStored: the schedule keyspace must record no entry
// for a curve point computed under an expired context.
func TestDegradedScheduleNotStored(t *testing.T) {
	s := fanInSpec(t, 3, 6, 500)
	session := memo.New(memo.Schedule)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DistributeContext(ctx, s, 20_000, Params{Memo: session}); err != nil {
		t.Fatal(err)
	}
	if st := session.Stats(memo.Schedule); st.Entries != 0 {
		t.Fatalf("degraded run left %d schedule entries in the session cache", st.Entries)
	}
}

// TestBalanceLoopContextCanceled: a canceled context still yields a
// complete, feasible single-loop schedule (the first greedy pass always
// runs; only the improvement passes are skipped).
func TestBalanceLoopContextCanceled(t *testing.T) {
	s := fanInSpec(t, 5, 10, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := &s.Loops[0]
	ls, err := balanceLoop(ctx, l, groupsMap(s), len(l.Accesses)+4, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ls.Start) != len(l.Accesses) {
		t.Fatalf("schedule covers %d of %d accesses", len(ls.Start), len(l.Accesses))
	}
	for id, st := range ls.Start {
		if st < 0 || st >= ls.Budget {
			t.Fatalf("access %d starts at cycle %d outside budget %d", id, st, ls.Budget)
		}
	}
}
