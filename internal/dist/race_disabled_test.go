//go:build !race

package dist

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
