//go:build !race

package dtse

// raceEnabled reports a -race build, whose instrumented searches run many
// times slower than the timings some tests are built around.
const raceEnabled = false
