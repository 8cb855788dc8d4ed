package geom

import (
	"errors"
	"fmt"
)

// Box is a rectilinear region of a level's cell-index space, inclusive on
// both bounds. Rank is the spatial dimensionality (1..MaxDim); coordinates on
// axes >= Rank must be zero. Level records the refinement level the box lives
// on (0 = coarsest); it does not affect geometric operations but travels with
// the box through partitioning so work weights can account for time
// subcycling.
//
// This mirrors the GrACE bounding-box representation: lower bound, upper
// bound and an implicit stride given by the refinement level.
type Box struct {
	Rank  int
	Lo    Point
	Hi    Point
	Level int
}

// errEmptyBox is returned by operations that require a non-empty box.
var errEmptyBox = errors.New("geom: empty box")

// NewBox returns a box of the given rank spanning lo..hi inclusive.
// It panics if rank is out of range; an inverted bound yields an empty box.
func NewBox(rank int, lo, hi Point) Box {
	if rank < 1 || rank > MaxDim {
		panic(fmt.Sprintf("geom: invalid rank %d", rank))
	}
	for d := rank; d < MaxDim; d++ {
		lo[d], hi[d] = 0, 0
	}
	return Box{Rank: rank, Lo: lo, Hi: hi}
}

// Box2 returns a 2-dimensional box [x0..x1] x [y0..y1].
func Box2(x0, y0, x1, y1 int) Box {
	return NewBox(2, Pt2(x0, y0), Pt2(x1, y1))
}

// Box3 returns a 3-dimensional box [x0..x1] x [y0..y1] x [z0..z1].
func Box3(x0, y0, z0, x1, y1, z1 int) Box {
	return NewBox(3, Pt3(x0, y0, z0), Pt3(x1, y1, z1))
}

// WithLevel returns a copy of b tagged with the given refinement level.
func (b Box) WithLevel(level int) Box {
	b.Level = level
	return b
}

// Empty reports whether the box contains no cells.
func (b Box) Empty() bool {
	for d := 0; d < b.Rank; d++ {
		if b.Hi[d] < b.Lo[d] {
			return true
		}
	}
	return b.Rank == 0
}

// Size returns the cell extent along axis d (0 for empty boxes).
func (b Box) Size(d int) int {
	n := b.Hi[d] - b.Lo[d] + 1
	if n < 0 {
		return 0
	}
	return n
}

// Extents returns the per-axis cell counts.
func (b Box) Extents() Point {
	var e Point
	for d := 0; d < b.Rank; d++ {
		e[d] = b.Size(d)
	}
	return e
}

// Cells returns the number of cells in the box (0 if empty).
func (b Box) Cells() int64 {
	if b.Empty() {
		return 0
	}
	n := int64(1)
	for d := 0; d < b.Rank; d++ {
		n *= int64(b.Size(d))
	}
	return n
}

// LongestAxis returns the axis with the largest extent, preferring the
// lowest axis index on ties.
func (b Box) LongestAxis() int {
	best, bestLen := 0, b.Size(0)
	for d := 1; d < b.Rank; d++ {
		if n := b.Size(d); n > bestLen {
			best, bestLen = d, n
		}
	}
	return best
}

// shortestAxis returns the axis with the smallest extent, preferring the
// lowest axis index on ties.
func (b Box) shortestAxis() int {
	best, bestLen := 0, b.Size(0)
	for d := 1; d < b.Rank; d++ {
		if n := b.Size(d); n < bestLen {
			best, bestLen = d, n
		}
	}
	return best
}

// AspectRatio returns longest extent / shortest extent, the quantity the
// ACEHeterogeneous splitting constraint bounds. Empty boxes have ratio 0.
func (b Box) AspectRatio() float64 {
	if b.Empty() {
		return 0
	}
	long := b.Size(b.LongestAxis())
	short := b.Size(b.shortestAxis())
	return float64(long) / float64(short)
}

// Contains reports whether p lies inside the box.
func (b Box) Contains(p Point) bool {
	for d := 0; d < b.Rank; d++ {
		if p[d] < b.Lo[d] || p[d] > b.Hi[d] {
			return false
		}
	}
	return !b.Empty()
}

// Intersects reports whether b and o share at least one cell: exactly
// !b.Intersect(o).Empty(), without building the overlap box.
func (b Box) Intersects(o Box) bool {
	for d := 0; d < b.Rank; d++ {
		if max(b.Lo[d], o.Lo[d]) > min(b.Hi[d], o.Hi[d]) {
			return false
		}
	}
	return b.Rank != 0
}

// Intersect returns the overlap of b and o (possibly empty). The result
// keeps b's rank and level.
func (b Box) Intersect(o Box) Box {
	r := b
	r.Lo = b.Lo.Max(o.Lo)
	r.Hi = b.Hi.Min(o.Hi)
	for d := r.Rank; d < MaxDim; d++ {
		r.Lo[d], r.Hi[d] = 0, 0
	}
	return r
}

// boundingUnion returns the smallest box covering both b and o.
func (b Box) boundingUnion(o Box) Box {
	if b.Empty() {
		return o
	}
	if o.Empty() {
		return b
	}
	r := b
	r.Lo = b.Lo.Min(o.Lo)
	r.Hi = b.Hi.Max(o.Hi)
	return r
}

// Equal reports whether the boxes cover the same region at the same level.
func (b Box) Equal(o Box) bool {
	if b.Empty() && o.Empty() {
		return b.Rank == o.Rank && b.Level == o.Level
	}
	return b.Rank == o.Rank && b.Level == o.Level && b.Lo == o.Lo && b.Hi == o.Hi
}

// Grow returns the box expanded by n cells on every face (n may be negative
// to shrink). Used to build ghost regions.
func (b Box) Grow(n int) Box {
	for d := 0; d < b.Rank; d++ {
		b.Lo[d] -= n
		b.Hi[d] += n
	}
	return b
}

// Refine maps the box to an index space ratio times finer: each cell becomes
// a ratio^Rank block of fine cells. The level tag is incremented.
func (b Box) Refine(ratio int) Box {
	if ratio < 1 {
		panic("geom: refine ratio must be >= 1")
	}
	for d := 0; d < b.Rank; d++ {
		b.Lo[d] *= ratio
		b.Hi[d] = (b.Hi[d]+1)*ratio - 1
	}
	b.Level++
	return b
}

// Coarsen maps the box to an index space ratio times coarser, rounding
// outward so the coarse box covers every fine cell. The level tag is
// decremented.
func (b Box) Coarsen(ratio int) Box {
	if ratio < 1 {
		panic("geom: coarsen ratio must be >= 1")
	}
	b.Lo, b.Hi = b.Lo.DivFloor(ratio), b.Hi.DivFloor(ratio)
	for d := b.Rank; d < MaxDim; d++ {
		b.Lo[d], b.Hi[d] = 0, 0
	}
	b.Level--
	return b
}

// Split cuts the box perpendicular to axis d between cells at-1 and at
// (i.e. the low part keeps indices < at). Both parts are non-empty only if
// Lo[d] < at <= Hi[d].
func (b Box) Split(d, at int) (low, high Box) {
	low, high = b, b
	low.Hi[d] = at - 1
	high.Lo[d] = at
	return low, high
}

// SplitFraction cuts the box along axis d so that the low part holds
// approximately frac of the cells, honouring a minimum side length of
// minSide on axis d for both parts when possible. It returns ok=false when
// the axis is too short to cut while keeping both parts >= minSide.
func (b Box) SplitFraction(d int, frac float64, minSide int) (low, high Box, ok bool) {
	if minSide < 1 {
		minSide = 1
	}
	n := b.Size(d)
	if n < 2*minSide {
		return b, Box{Rank: b.Rank, Level: b.Level, Lo: Pt3(0, 0, 0), Hi: Pt3(-1, -1, -1)}, false
	}
	cut := int(float64(n)*frac + 0.5)
	if cut < minSide {
		cut = minSide
	}
	if cut > n-minSide {
		cut = n - minSide
	}
	low, high = b.Split(d, b.Lo[d]+cut)
	return low, high, true
}

// Subtract returns a set of disjoint boxes covering the cells of b that are
// not in o. The result has at most 2*Rank boxes.
func (b Box) Subtract(o Box) []Box {
	inter := b.Intersect(o)
	if inter.Empty() {
		if b.Empty() {
			return nil
		}
		return []Box{b}
	}
	if inter.Equal(b.Intersect(b)) && inter.Lo == b.Lo && inter.Hi == b.Hi {
		return nil
	}
	var out []Box
	rem := b
	for d := 0; d < b.Rank; d++ {
		if rem.Lo[d] < inter.Lo[d] {
			low, high := rem.Split(d, inter.Lo[d])
			out = append(out, low)
			rem = high
		}
		if rem.Hi[d] > inter.Hi[d] {
			low, high := rem.Split(d, inter.Hi[d]+1)
			out = append(out, high)
			rem = low
		}
	}
	return out
}

// String renders the box as "L<level>[(x0,y0,z0)..(x1,y1,z1)]".
func (b Box) String() string {
	return fmt.Sprintf("L%d[%v..%v]", b.Level, b.Lo, b.Hi)
}
