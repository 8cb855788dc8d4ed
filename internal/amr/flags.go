package amr

import (
	"samrpart/internal/geom"
)

// FlagField marks cells of a level's index space that need refinement. The
// regridding step's first phase fills it from an application-specific error
// estimator; the second phase clusters the flagged points into boxes.
type FlagField struct {
	Box  geom.Box
	data []bool
}

// NewFlagField allocates an all-clear flag field over box.
func NewFlagField(box geom.Box) *FlagField {
	if box.Empty() {
		panic("amr: empty flag field box")
	}
	return &FlagField{Box: box, data: make([]bool, box.Cells())}
}

func (f *FlagField) offset(pt geom.Point) int {
	off := 0
	stride := 1
	for d := 0; d < f.Box.Rank; d++ {
		off += (pt[d] - f.Box.Lo[d]) * stride
		stride *= f.Box.Size(d)
	}
	return off
}

// Set flags cell pt; points outside the field are ignored.
func (f *FlagField) Set(pt geom.Point) {
	if f.Box.Contains(pt) {
		f.data[f.offset(pt)] = true
	}
}

// Get reports whether cell pt is flagged; points outside are unflagged.
func (f *FlagField) Get(pt geom.Point) bool {
	if !f.Box.Contains(pt) {
		return false
	}
	return f.data[f.offset(pt)]
}

// Count returns the number of flagged cells.
func (f *FlagField) Count() int {
	n := 0
	for _, v := range f.data {
		if v {
			n++
		}
	}
	return n
}

// countIn returns the number of flagged cells inside region.
func (f *FlagField) countIn(region geom.Box) int {
	region = f.Box.Intersect(region)
	if region.Empty() {
		return 0
	}
	n := 0
	f.each(region, func(pt geom.Point) {
		if f.data[f.offset(pt)] {
			n++
		}
	})
	return n
}

// each visits every cell of region (assumed within the field box).
func (f *FlagField) each(region geom.Box, fn func(pt geom.Point)) {
	var pt geom.Point
	lo, hi := region.Lo, region.Hi
	switch f.Box.Rank {
	case 1:
		for x := lo[0]; x <= hi[0]; x++ {
			fn(geom.Point{x})
		}
	case 2:
		for y := lo[1]; y <= hi[1]; y++ {
			pt[1] = y
			for x := lo[0]; x <= hi[0]; x++ {
				pt[0] = x
				fn(pt)
			}
		}
	default:
		for z := lo[2]; z <= hi[2]; z++ {
			pt[2] = z
			for y := lo[1]; y <= hi[1]; y++ {
				pt[1] = y
				for x := lo[0]; x <= hi[0]; x++ {
					pt[0] = x
					fn(pt)
				}
			}
		}
	}
}

// FlaggedBounds returns the bounding box of flagged cells inside region; the
// second result is false if none are flagged.
func (f *FlagField) FlaggedBounds(region geom.Box) (geom.Box, bool) {
	region = f.Box.Intersect(region)
	if region.Empty() {
		return geom.Box{}, false
	}
	found := false
	var lo, hi geom.Point
	f.each(region, func(pt geom.Point) {
		if !f.data[f.offset(pt)] {
			return
		}
		if !found {
			lo, hi = pt, pt
			found = true
			return
		}
		lo = lo.Min(pt)
		hi = hi.Max(pt)
	})
	if !found {
		return geom.Box{}, false
	}
	b := geom.NewBox(f.Box.Rank, lo, hi)
	b.Level = f.Box.Level
	return b, true
}

// Buffer dilates the flags by n cells in every direction (clipped to the
// field box), the standard safety margin so features do not escape refined
// regions between regrids.
func (f *FlagField) Buffer(n int) {
	if n <= 0 || f.Count() == 0 {
		return
	}
	out := make([]bool, len(f.data))
	f.each(f.Box, func(pt geom.Point) {
		if !f.data[f.offset(pt)] {
			return
		}
		nb := geom.NewBox(f.Box.Rank, pt, pt).Grow(n).Intersect(f.Box)
		f.each(nb, func(q geom.Point) {
			out[f.offset(q)] = true
		})
	})
	f.data = out
}

// signature returns the per-plane flagged-cell counts along axis d within
// region: Berger–Rigoutsos' Σ histogram. The slice has region.Size(d)
// entries, entry i counting flags in the plane at coordinate region.Lo[d]+i.
func (f *FlagField) signature(region geom.Box, d int) []int {
	region = f.Box.Intersect(region)
	if region.Empty() {
		return nil
	}
	sig := make([]int, region.Size(d))
	f.each(region, func(pt geom.Point) {
		if f.data[f.offset(pt)] {
			sig[pt[d]-region.Lo[d]]++
		}
	})
	return sig
}
