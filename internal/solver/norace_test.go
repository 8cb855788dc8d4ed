//go:build !race

package solver

const race = false
