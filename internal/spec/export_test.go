package spec

import "math/rand"

// HostileSpec and EdgeSpec expose the hostile-spec generators to the
// external test package (the golden corpus needs them next to the
// demonstrator specs, which this package cannot import).
func HostileSpec(seed int64) *Spec { return hostileSpec(rand.New(rand.NewSource(seed))) }

func EdgeSpec() *Spec { return edgeSpec() }
