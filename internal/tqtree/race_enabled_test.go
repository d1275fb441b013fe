//go:build race

package tqtree

// raceEnabled reports whether the race detector is active; allocation
// pins skip under it (its instrumentation allocates).
const raceEnabled = true
