package amr

import (
	"samrpart/internal/geom"
)

// Prolong injects coarse values into the fine patch (piecewise-constant
// prolongation): every fine cell overlapping the coarse patch's interior
// receives the value of its parent coarse cell, in every field. Cells are
// written in both the fine interior and halo, which is how coarse-fine
// boundary conditions are supplied. Returns the number of fine cells filled.
func Prolong(fine, coarse *Patch, ratio int) int64 {
	return ProlongRegion(fine, coarse, ratio, fine.Padded())
}

// ProlongRegion is Prolong restricted to the fine cells inside region
// (clipped to the fine padded box and the coarse interior). The halo-fill
// path uses it to supply coarse-fine boundary conditions without touching
// the fine interior, which keeps concurrent per-patch halo fills free of
// cross-patch writes.
//
// It walks the region a fine (y, z) row at a time, all fields at the
// row's offsets: each row reads one coarse row and writes each coarse
// value ratio times along x, the first and last runs cut short by where
// the region starts and ends. Axes at or above the rank are 0 on both
// sides, and 0 maps to 0.
func ProlongRegion(fine, coarse *Patch, ratio int, region geom.Box) int64 {
	if fine.NumFields != coarse.NumFields {
		panic("amr: Prolong field count mismatch")
	}
	coarseAsFine := coarse.Box.Refine(ratio)
	coarseAsFine.Level = fine.Box.Level
	region = region.Intersect(fine.Padded()).Intersect(coarseAsFine)
	if region.Empty() {
		return 0
	}
	x0, nx := region.Lo[0], region.Size(0)
	cx0 := geom.FloorDiv(x0, ratio)
	first := ratio - (x0 - cx0*ratio) // fine cells under the first coarse cell
	for z := region.Lo[2]; z <= region.Hi[2]; z++ {
		cz := geom.FloorDiv(z, ratio)
		for y := region.Lo[1]; y <= region.Hi[1]; y++ {
			fo := fine.rowOffset(x0, y, z)
			co := coarse.rowOffset(cx0, geom.FloorDiv(y, ratio), cz)
			for f := 0; f < fine.NumFields; f++ {
				row, src := fine.data[f*fine.fsize+fo:][:nx], coarse.data[f*coarse.fsize+co:]
				c, k := 0, first
				for i := range row {
					row[i] = src[c]
					if k--; k == 0 {
						c, k = c+1, ratio
					}
				}
			}
		}
	}
	return region.Cells()
}

// Restrict averages fine values onto the coarse patch: every coarse interior
// cell fully covered by the fine patch's interior receives the mean of its
// ratio^rank fine children, in every field. This is the Berger–Oliger
// restriction applied after each fine sub-cycle completes. Returns the
// number of coarse cells updated.
//
// The covered cells form one coarse box, walked a coarse row at a time.
// Each cell sums its children from 0.0 in z, then y, then x order and
// scales the sum by 1/ratio^rank. That order is part of the contract:
// floating-point addition does not associate, and multi-level solutions
// are pinned bit for bit (FuzzTransferMatchesReference,
// TestMultiLevelRunMatchesGolden).
func Restrict(coarse, fine *Patch, ratio int) int64 {
	if fine.NumFields != coarse.NumFields {
		panic("amr: Restrict field count mismatch")
	}
	// Coarse cells whose whole child block lies inside fine.Box: fine.Box
	// coarsened inward, ratio per axis below the rank and 1 above it.
	region := coarse.Box
	r := [geom.MaxDim]int{1, 1, 1}
	children := 1
	for d := 0; d < coarse.Box.Rank; d++ {
		r[d] = ratio
		children *= ratio
		region.Lo[d] = max(region.Lo[d], geom.FloorDiv(fine.Box.Lo[d]+ratio-1, ratio))
		region.Hi[d] = min(region.Hi[d], geom.FloorDiv(fine.Box.Hi[d]+1, ratio)-1)
	}
	if region.Empty() {
		return 0
	}
	inv := 1.0 / float64(children)
	nx := region.Size(0)
	sy, sz := fine.stride[1], fine.stride[2]
	for f := 0; f < coarse.NumFields; f++ {
		cf, ff := coarse.Field(f), fine.Field(f)
		for z := region.Lo[2]; z <= region.Hi[2]; z++ {
			for y := region.Lo[1]; y <= region.Hi[1]; y++ {
				row := cf[coarse.rowOffset(region.Lo[0], y, z):][:nx]
				base := fine.rowOffset(region.Lo[0]*ratio, y*r[1], z*r[2])
				for i := range row {
					sum := 0.0
					for dz := 0; dz < r[2]; dz++ {
						for dy := 0; dy < r[1]; dy++ {
							o := base + dy*sy + dz*sz
							for dx := 0; dx < ratio; dx++ {
								sum += ff[o+dx]
							}
						}
					}
					row[i] = sum * inv
					base += ratio
				}
			}
		}
	}
	return region.Cells()
}
