// Package amr implements the Berger–Oliger structured adaptive mesh
// refinement machinery GrACE provides: component-grid patches with ghost
// cells, error flag fields, Berger–Rigoutsos point clustering, the adaptive
// grid hierarchy with proper nesting, inter-grid transfer operators
// (prolongation and restriction) and the time-subcycling schedule.
package amr

import (
	"fmt"

	"samrpart/internal/geom"
)

// Patch is the solution storage of one component grid: NumFields cell
// centered fields over an interior box plus a ghost halo of uniform width.
// Storage is field-major with x fastest, a single allocation per patch.
type Patch struct {
	Box       geom.Box // interior region (no ghosts)
	Ghost     int      // halo width in cells
	NumFields int

	padded geom.Box // Box.Grow(Ghost)
	stride [geom.MaxDim]int
	fsize  int // cells in padded box
	data   []float64
}

// NewPatch allocates a zero-initialized patch.
func NewPatch(box geom.Box, ghost, numFields int) *Patch {
	if box.Empty() {
		panic("amr: empty patch box")
	}
	if ghost < 0 || numFields < 1 {
		panic(fmt.Sprintf("amr: invalid patch shape ghost=%d fields=%d", ghost, numFields))
	}
	p := &Patch{Box: box, Ghost: ghost, NumFields: numFields}
	p.padded = box.Grow(ghost)
	p.stride[0] = 1
	for d := 1; d < geom.MaxDim; d++ {
		if d < box.Rank {
			p.stride[d] = p.stride[d-1] * p.padded.Size(d-1)
		}
	}
	p.fsize = int(p.padded.Cells())
	p.data = make([]float64, p.fsize*numFields)
	return p
}

// Reuse re-homes the patch's storage on box — any origin or level, but with
// the extents, halo width and field count the patch already has, or Reuse
// reports false and leaves it untouched. Every cell, interior and halo, keeps
// the value it last held: the caller must overwrite all it will read.
func (p *Patch) Reuse(box geom.Box, ghost, numFields int) bool {
	if ghost != p.Ghost || numFields != p.NumFields || box.Rank != p.Box.Rank || box.Extents() != p.Box.Extents() {
		return false
	}
	p.Box, p.padded = box, box.Grow(ghost)
	return true
}

// Clone returns a deep copy of the patch (its own field storage). The
// asynchronous checkpointer clones patches at the cut point so integration
// can keep mutating the originals while the snapshot is serialized.
func (p *Patch) Clone() *Patch {
	cp := *p
	cp.data = make([]float64, len(p.data))
	copy(cp.data, p.data)
	return &cp
}

// Padded returns the patch's storage region (interior grown by the halo).
func (p *Patch) Padded() geom.Box { return p.padded }

// Bytes returns the storage footprint of the patch's field data.
func (p *Patch) Bytes() int64 { return int64(len(p.data)) * 8 }

// offset returns the linear index of pt within the padded box.
func (p *Patch) offset(pt geom.Point) int {
	off := 0
	for d := 0; d < p.Box.Rank; d++ {
		off += (pt[d] - p.padded.Lo[d]) * p.stride[d]
	}
	return off
}

// At returns field f at cell pt (which may lie in the halo).
func (p *Patch) At(f int, pt geom.Point) float64 {
	return p.data[f*p.fsize+p.offset(pt)]
}

// Set assigns field f at cell pt.
func (p *Patch) Set(f int, pt geom.Point, v float64) {
	p.data[f*p.fsize+p.offset(pt)] = v
}

// Field returns the raw storage of field f over the padded box; the layout
// is x-fastest row major. Solvers use this for inner loops.
func (p *Patch) Field(f int) []float64 {
	return p.data[f*p.fsize : (f+1)*p.fsize]
}

// Pencil returns field f over the full padded x-extent of the row at
// (y, z): a slice of length Padded().Size(0) whose element i is the cell
// at x = Padded().Lo[0]+i. For rank-2 patches z must be 0, for rank-1
// patches y and z must be 0. The slice aliases the patch storage, so
// writes through it are writes into the patch. It panics when f, y or z
// lie outside the patch — pencils are the hot-path accessor, so the
// bounds contract is checked here once per row instead of per cell.
func (p *Patch) Pencil(f, y, z int) []float64 {
	if f < 0 || f >= p.NumFields {
		panic(fmt.Sprintf("amr: Pencil field %d out of range [0,%d)", f, p.NumFields))
	}
	if p.Box.Rank < 3 && z != 0 || p.Box.Rank >= 3 && (z < p.padded.Lo[2] || z > p.padded.Hi[2]) {
		panic(fmt.Sprintf("amr: Pencil z=%d outside padded box %v", z, p.padded))
	}
	if p.Box.Rank < 2 && y != 0 || p.Box.Rank >= 2 && (y < p.padded.Lo[1] || y > p.padded.Hi[1]) {
		panic(fmt.Sprintf("amr: Pencil y=%d outside padded box %v", y, p.padded))
	}
	off := f * p.fsize
	if p.Box.Rank >= 2 {
		off += (y - p.padded.Lo[1]) * p.stride[1]
	}
	if p.Box.Rank >= 3 {
		off += (z - p.padded.Lo[2]) * p.stride[2]
	}
	return p.data[off : off+p.padded.Size(0)]
}

// PencilIndex translates a cell x-coordinate into an index of a Pencil
// slice (also valid into Field storage relative to the row base).
func (p *Patch) PencilIndex(x int) int { return x - p.padded.Lo[0] }

// Stride returns the linear stride of axis d in Field storage.
func (p *Patch) Stride(d int) int { return p.stride[d] }

// Fill sets every cell (interior and halo) of field f to v.
func (p *Patch) Fill(f int, v float64) {
	fd := p.Field(f)
	for i := range fd {
		fd[i] = v
	}
}

// FillAll sets every cell of every field to v.
func (p *Patch) FillAll(v float64) {
	for i := range p.data {
		p.data[i] = v
	}
}

// EachInterior visits every interior cell of the patch.
func (p *Patch) EachInterior(fn func(pt geom.Point)) {
	p.eachIn(p.Box, fn)
}

// eachIn visits every cell of region (assumed inside the padded box).
func (p *Patch) eachIn(region geom.Box, fn func(pt geom.Point)) {
	if region.Empty() {
		return
	}
	var pt geom.Point
	lo, hi := region.Lo, region.Hi
	switch p.Box.Rank {
	case 1:
		for x := lo[0]; x <= hi[0]; x++ {
			pt[0] = x
			fn(pt)
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

// AppendHaloBoxes appends the patch's halo shell — the padded box minus the
// interior — to dst as disjoint boxes (up to 2·Rank slabs) and returns the
// extended slice. The shell is empty when Ghost == 0. The decomposition is
// the usual one: for axis d, two slabs outside the interior along d, spanning
// the interior extent on axes < d and the full padded extent on axes > d.
func (p *Patch) AppendHaloBoxes(dst []geom.Box) []geom.Box {
	if p.Ghost == 0 {
		return dst
	}
	rank := p.Box.Rank
	for d := 0; d < rank; d++ {
		lo, hi := p.padded.Lo, p.padded.Hi
		for k := 0; k < d; k++ {
			lo[k], hi[k] = p.Box.Lo[k], p.Box.Hi[k]
		}
		low, high := p.padded, p.padded
		low.Lo, low.Hi = lo, hi
		high.Lo, high.Hi = lo, hi
		low.Hi[d] = p.Box.Lo[d] - 1
		high.Lo[d] = p.Box.Hi[d] + 1
		dst = append(dst, low, high)
	}
	return dst
}

// CopyOverlap copies the interior cells of src that fall inside dst's padded
// region (interior or halo) into dst, for every field. Both patches must
// live on the same level and have the same field count. It returns the
// number of cells copied, which the runtime uses for communication-volume
// accounting.
func CopyOverlap(dst, src *Patch) int64 {
	region := dst.padded.Intersect(src.Box)
	CopyRegion(dst, src, region)
	return region.Cells()
}

// The three region primitives below move a box of cells a row at a time:
// storage is x-fastest, so every (y, z) row of a region is one contiguous
// run. Serialized order is field-major, then z, y, x — the wire order of
// halo and migration frames. The region must lie inside the padded box of
// every patch involved; an empty region is a no-op.

// CopyRegion copies the cells of region from src into dst, for every field.
// Both patches must live on the same level and have the same field count.
func CopyRegion(dst, src *Patch, region geom.Box) {
	if dst.NumFields != src.NumFields {
		panic("amr: CopyRegion field count mismatch")
	}
	if region.Empty() {
		return
	}
	nx := region.Size(0)
	for f := 0; f < dst.NumFields; f++ {
		df, sf := dst.Field(f), src.Field(f)
		for z := region.Lo[2]; z <= region.Hi[2]; z++ {
			for y := region.Lo[1]; y <= region.Hi[1]; y++ {
				do := dst.rowOffset(region.Lo[0], y, z)
				so := src.rowOffset(region.Lo[0], y, z)
				copy(df[do:do+nx], sf[so:so+nx])
			}
		}
	}
}

// AppendRegion appends the values of region (all fields) to dst and returns
// the extended slice.
func (p *Patch) AppendRegion(dst []float64, region geom.Box) []float64 {
	if region.Empty() {
		return dst
	}
	nx := region.Size(0)
	for f := 0; f < p.NumFields; f++ {
		fd := p.Field(f)
		for z := region.Lo[2]; z <= region.Hi[2]; z++ {
			for y := region.Lo[1]; y <= region.Hi[1]; y++ {
				o := p.rowOffset(region.Lo[0], y, z)
				dst = append(dst, fd[o:o+nx]...)
			}
		}
	}
	return dst
}

// SetRegion writes data — region's values in AppendRegion order — into the
// patch. It panics unless len(data) is region.Cells()·NumFields; callers
// holding data from outside the program check the length first.
func (p *Patch) SetRegion(region geom.Box, data []float64) {
	if len(data) != int(region.Cells())*p.NumFields {
		panic(fmt.Sprintf("amr: SetRegion got %d values for %v x %d fields", len(data), region, p.NumFields))
	}
	if region.Empty() {
		return
	}
	nx := region.Size(0)
	for f := 0; f < p.NumFields; f++ {
		fd := p.Field(f)
		for z := region.Lo[2]; z <= region.Hi[2]; z++ {
			for y := region.Lo[1]; y <= region.Hi[1]; y++ {
				o := p.rowOffset(region.Lo[0], y, z)
				copy(fd[o:o+nx], data[:nx])
				data = data[nx:]
			}
		}
	}
}

// rowOffset returns the linear index of cell (x, y, z) within the padded
// box; axes beyond the rank must be zero (their Lo/stride are 0/0).
func (p *Patch) rowOffset(x, y, z int) int {
	return (x-p.padded.Lo[0])*p.stride[0] +
		(y-p.padded.Lo[1])*p.stride[1] +
		(z-p.padded.Lo[2])*p.stride[2]
}
