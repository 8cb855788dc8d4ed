// Package sfc implements space-filling curves over integer lattices.
//
// GrACE maps the adaptive grid hierarchy to a one-dimensional index space
// using a space-filling curve so that index locality corresponds to spatial
// locality (Sagan 1994). Two curves are provided: Morton (Z-order, bit
// interleave) and Hilbert (Skilling's transpose construction, "Programming
// the Hilbert curve", AIP 2004), both for any rank in 1..geom.MaxDim and up
// to 20 bits per axis (so indices fit comfortably in a uint64 at rank 3).
//
// The curves operate on non-negative coordinates; callers partitioning a
// domain translate boxes into the domain-relative frame first (see Mapper).
package sfc

import (
	"fmt"

	"samrpart/internal/geom"
)

// maxBits is the largest supported number of bits per axis. With rank 3
// this yields 60-bit curve indices.
const maxBits = 20

// Curve enumerates points of an axis-aligned lattice in a locality
// preserving order. Implementations must be bijections between
// [0, 2^(rank*bits)) and the lattice [0, 2^bits)^rank.
type Curve interface {
	// Name identifies the curve ("morton", "hilbert").
	Name() string
	// Index maps a lattice point to its position along the curve.
	Index(p geom.Point, rank, bits int) uint64
	// Point maps a curve position back to the lattice point.
	Point(idx uint64, rank, bits int) geom.Point
}

// bitsFor returns the number of bits per axis needed to index extents up to
// n cells (n >= 1).
func bitsFor(n int) int {
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	if bits == 0 {
		bits = 1
	}
	return bits
}

func checkArgs(rank, bits int) {
	if rank < 1 || rank > geom.MaxDim {
		panic(fmt.Sprintf("sfc: invalid rank %d", rank))
	}
	if bits < 1 || bits > maxBits {
		panic(fmt.Sprintf("sfc: invalid bits %d", bits))
	}
}

// Morton is the Z-order curve: the index is the bit interleave of the
// coordinates. Cheap to evaluate, with slightly worse locality than Hilbert.
type Morton struct{}

// Name implements Curve.
func (Morton) Name() string { return "morton" }

// Index implements Curve.
func (Morton) Index(p geom.Point, rank, bits int) uint64 {
	checkArgs(rank, bits)
	var idx uint64
	for b := bits - 1; b >= 0; b-- {
		for d := 0; d < rank; d++ {
			idx = idx<<1 | uint64(p[d]>>uint(b))&1
		}
	}
	return idx
}

// Point implements Curve.
func (Morton) Point(idx uint64, rank, bits int) geom.Point {
	checkArgs(rank, bits)
	var p geom.Point
	shift := uint(rank*bits - 1)
	for b := bits - 1; b >= 0; b-- {
		for d := 0; d < rank; d++ {
			p[d] |= int(idx>>shift&1) << uint(b)
			shift--
		}
	}
	return p
}

// Hilbert is the Hilbert curve via Skilling's transpose algorithm. Adjacent
// curve indices are always adjacent lattice points (unit L1 distance), the
// locality property GrACE relies on for partition contiguity.
type Hilbert struct{}

// Name implements Curve.
func (Hilbert) Name() string { return "hilbert" }

// Index implements Curve.
func (Hilbert) Index(p geom.Point, rank, bits int) uint64 {
	checkArgs(rank, bits)
	var x [geom.MaxDim]uint32
	for d := 0; d < rank; d++ {
		x[d] = uint32(p[d])
	}
	axesToTranspose(x[:rank], bits)
	// Interleave the transposed coordinates, most significant bit plane
	// first, axis 0 first within a plane.
	var idx uint64
	for b := bits - 1; b >= 0; b-- {
		for d := 0; d < rank; d++ {
			idx = idx<<1 | uint64(x[d]>>uint(b))&1
		}
	}
	return idx
}

// Point implements Curve.
func (Hilbert) Point(idx uint64, rank, bits int) geom.Point {
	checkArgs(rank, bits)
	var x [geom.MaxDim]uint32
	shift := uint(rank*bits - 1)
	for b := bits - 1; b >= 0; b-- {
		for d := 0; d < rank; d++ {
			x[d] |= uint32(idx>>shift&1) << uint(b)
			shift--
		}
	}
	transposeToAxes(x[:rank], bits)
	var p geom.Point
	for d := 0; d < rank; d++ {
		p[d] = int(x[d])
	}
	return p
}

// axesToTranspose converts lattice coordinates into the transposed Hilbert
// index representation, in place (Skilling 2004).
func axesToTranspose(x []uint32, bits int) {
	n := len(x)
	m := uint32(1) << uint(bits-1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes inverts axesToTranspose, in place (Skilling 2004).
func transposeToAxes(x []uint32, bits int) {
	n := len(x)
	nn := uint32(2) << uint(bits-1)
	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != nn; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}
