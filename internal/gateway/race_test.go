//go:build race

package gateway

// raceEnabled reports whether the race detector is on; it multiplies
// allocations, so allocation bounds are skipped under it.
const raceEnabled = true
