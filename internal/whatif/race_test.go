//go:build race

package whatif

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
