//go:build !race

package tqtree

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
