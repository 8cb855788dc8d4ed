//go:build race

package engine

// race reports that the race detector is on.
const race = true
