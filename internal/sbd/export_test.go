package sbd

// RandomSpec exposes the seeded random-loop generator to the external
// golden test.
var RandomSpec = randomSpec
