//go:build race

package harness

// raceEnabled reports that the race detector is active; the figure sweeps
// are skipped because they run ~8× slower under it and start no goroutine.
const raceEnabled = true
