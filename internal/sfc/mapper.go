package sfc

import (
	"samrpart/internal/geom"
)

// Mapper orders boxes of an adaptive grid hierarchy along a space-filling
// curve defined over the level-0 domain. Boxes on refined levels are
// coarsened to the base index space first, so grids that overlay the same
// coarse region land near each other on the curve — the inter-level locality
// GrACE's composite distribution preserves.
type Mapper struct {
	curve       Curve
	domain      geom.Box
	refineRatio int
	bits        int
}

// NewMapper builds a mapper for the given level-0 domain. refineRatio is the
// factor between successive levels (2 in the paper's experiments).
func NewMapper(curve Curve, domain geom.Box, refineRatio int) *Mapper {
	if domain.Empty() {
		panic("sfc: empty domain")
	}
	if refineRatio < 2 {
		panic("sfc: refine ratio must be >= 2")
	}
	maxExtent := 1
	for d := 0; d < domain.Rank; d++ {
		if n := domain.Size(d); n > maxExtent {
			maxExtent = n
		}
	}
	return &Mapper{
		curve:       curve,
		domain:      domain,
		refineRatio: refineRatio,
		bits:        bitsFor(maxExtent),
	}
}

// BoxIndex returns the curve position of a box: the SFC index of its
// centroid mapped to the level-0 index space, relative to the domain origin.
func (m *Mapper) BoxIndex(b geom.Box) uint64 {
	// Centroid on the box's own level.
	var c geom.Point
	for d := 0; d < b.Rank; d++ {
		c[d] = (b.Lo[d] + b.Hi[d]) / 2
	}
	// Coarsen to the base level.
	for lev := b.Level; lev > 0; lev-- {
		c = c.DivFloor(m.refineRatio)
	}
	// Shift into the domain-relative frame and clamp (boxes are expected to
	// nest inside the domain; clamping guards degenerate callers).
	c = c.Sub(m.domain.Lo)
	limit := 1<<uint(m.bits) - 1
	for d := 0; d < m.domain.Rank; d++ {
		if c[d] < 0 {
			c[d] = 0
		}
		if c[d] > limit {
			c[d] = limit
		}
	}
	return m.curve.Index(c, m.domain.Rank, m.bits)
}

// Sort orders the list in place by curve position, breaking ties by level
// then lower bound so the order is deterministic.
func (m *Mapper) Sort(l geom.BoxList) {
	l.SortBy(func(b geom.Box) int64 { return int64(m.BoxIndex(b)) })
}
