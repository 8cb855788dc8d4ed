//go:build !race

package engine

const race = false
