//go:build !race

package harness

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
