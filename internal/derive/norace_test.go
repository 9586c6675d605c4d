//go:build !race

package derive

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
