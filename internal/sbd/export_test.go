package sbd

import (
	"context"
	"sort"
	"strconv"
	"strings"

	"repro/internal/spec"
)

// RandomSpec exposes the seeded random-loop generator to the external
// golden test.
var RandomSpec = randomSpec

// BalanceLoop exposes the single-loop scheduler to the external golden
// test.
var BalanceLoop = balanceLoop

// patternsOfSpec derives the merged conflict patterns of a set of
// schedules of s, in canonical sorted order.
func patternsOfSpec(s *spec.Spec, scheds []*LoopSchedule, p Params) []Pattern {
	p.normalize()
	return patternsOf(s, scheds, groupsOf(s), p)
}

// patternKey is the canonical identity of an access multiset: "name:count;"
// in sorted name order, the key loopPatterns merges by.
func patternKey(acc map[string]int) string {
	names := make([]string, 0, len(acc))
	for n := range acc {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(acc[n]))
		b.WriteByte(';')
	}
	return b.String()
}

// FingerprintPatterns is a canonical identity of a conflict-pattern
// sequence: every pattern's key plus its weight, in sequence order.
// distributions.golden hashes it, so its bytes must never change.
func FingerprintPatterns(pats []Pattern) string {
	var b strings.Builder
	for _, pt := range pats {
		b.WriteString(patternKey(pt.Access))
		b.WriteByte('@')
		b.WriteString(strconv.FormatUint(pt.Weight, 10))
		b.WriteByte('|')
	}
	return b.String()
}

// distributeFullScan is DistributeContext without the jump to the
// conflict-free end: every curve is built point by point.
func distributeFullScan(ctx context.Context, s *spec.Spec, budget uint64, p Params) (*Distribution, error) {
	return distribute(ctx, s, budget, p, false)
}
