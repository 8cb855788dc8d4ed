// Package geom provides the integer box geometry underlying structured
// adaptive mesh refinement (SAMR): N-dimensional rectilinear index regions,
// box arithmetic (intersection, splitting, refinement, ghost growth) and box
// lists with work accounting.
//
// All coordinates are integer cell indices on a level's index space. Boxes
// are cell-centered and inclusive on both bounds: a box with Lo=(0,0,0) and
// Hi=(7,7,7) covers 8 cells along each axis. Two- and one-dimensional boxes
// are represented in the same fixed-rank storage with the unused axes pinned
// to [0,0].
package geom

import "fmt"

// MaxDim is the maximum spatial rank supported by the package.
const MaxDim = 3

// Point is an integer coordinate in up to MaxDim dimensions. Axes beyond the
// rank of the enclosing object are zero.
type Point [MaxDim]int

// Pt2 returns a 2-dimensional point.
func Pt2(x, y int) Point { return Point{x, y, 0} }

// Pt3 returns a 3-dimensional point.
func Pt3(x, y, z int) Point { return Point{x, y, z} }

// Sub returns the component-wise difference p-q.
func (p Point) Sub(q Point) Point {
	for d := 0; d < MaxDim; d++ {
		p[d] -= q[d]
	}
	return p
}

// Scale returns the component-wise product p*s.
func (p Point) Scale(s int) Point {
	for d := 0; d < MaxDim; d++ {
		p[d] *= s
	}
	return p
}

// Min returns the component-wise minimum of p and q.
func (p Point) Min(q Point) Point {
	for d := 0; d < MaxDim; d++ {
		if q[d] < p[d] {
			p[d] = q[d]
		}
	}
	return p
}

// Max returns the component-wise maximum of p and q.
func (p Point) Max(q Point) Point {
	for d := 0; d < MaxDim; d++ {
		if q[d] > p[d] {
			p[d] = q[d]
		}
	}
	return p
}

// Less reports whether p precedes q in lexicographic order.
func (p Point) Less(q Point) bool {
	for d := 0; d < MaxDim; d++ {
		if p[d] != q[d] {
			return p[d] < q[d]
		}
	}
	return false
}

// DivFloor returns the component-wise floor division p/s for s > 0,
// rounding toward negative infinity (so coarsening negative indices is
// consistent with the usual SAMR index maps).
func (p Point) DivFloor(s int) Point {
	if s <= 0 {
		panic("geom: DivFloor requires positive divisor")
	}
	for d := 0; d < MaxDim; d++ {
		p[d] = FloorDiv(p[d], s)
	}
	return p
}

// FloorDiv returns a/s rounded toward negative infinity, for s > 0: the
// index map from a fine cell to its coarse parent, negative halo indices
// included.
func FloorDiv(a, s int) int {
	q := a / s
	if a%s != 0 && a < 0 {
		q--
	}
	return q
}

// String renders the point as "(x,y,z)".
func (p Point) String() string {
	return fmt.Sprintf("(%d,%d,%d)", p[0], p[1], p[2])
}
