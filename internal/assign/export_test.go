package assign

import (
	"context"

	"repro/internal/memlib"
	"repro/internal/sbd"
	"repro/internal/spec"
)

// assignUnpruned is AssignContext without the width-waste term and the twin
// rule, with the search's effort.
func assignUnpruned(ctx context.Context, s *spec.Spec, pats []sbd.Pattern, tech *memlib.Tech, count int, p Params) (*Assignment, searchStats, error) {
	return assignWith(ctx, s, pats, tech, count, p, false)
}
