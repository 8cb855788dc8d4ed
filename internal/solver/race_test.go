//go:build race

package solver

// race reports that the race detector is on.
const race = true
