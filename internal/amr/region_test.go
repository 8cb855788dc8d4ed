package amr

import (
	"math"
	"math/rand"
	"testing"

	"samrpart/internal/geom"
)

// appendRegionReference and setRegionReference are the per-cell walks the
// row primitives replaced (the engine's closure extract/apply): field-major,
// then z, y, x, one At/Set per cell.
func appendRegionReference(dst []float64, p *Patch, region geom.Box) []float64 {
	for f := 0; f < p.NumFields; f++ {
		p.eachIn(region, func(pt geom.Point) { dst = append(dst, p.At(f, pt)) })
	}
	return dst
}

func setRegionReference(p *Patch, region geom.Box, data []float64) {
	i := 0
	for f := 0; f < p.NumFields; f++ {
		p.eachIn(region, func(pt geom.Point) {
			p.Set(f, pt, data[i])
			i++
		})
	}
}

// copyOverlapReference is CopyOverlap as it stood before CopyRegion was
// factored out of it, kept verbatim.
func copyOverlapReference(dst, src *Patch) int64 {
	if dst.NumFields != src.NumFields {
		panic("amr: CopyOverlap field count mismatch")
	}
	region := dst.padded.Intersect(src.Box)
	if region.Empty() {
		return 0
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
	return region.Cells()
}

// randomBox draws a box of the given rank with extents 1..maxExt and lower
// bounds on both sides of zero.
func randomBox(r *rand.Rand, rank, maxExt int) geom.Box {
	var lo, hi geom.Point
	for d := 0; d < rank; d++ {
		lo[d] = r.Intn(13) - 6
		hi[d] = lo[d] + r.Intn(maxExt)
	}
	return geom.NewBox(rank, lo, hi)
}

// randomPatch fills every cell (halo included) with distinct bit patterns.
func randomPatch(r *rand.Rand, box geom.Box, ghost, fields int) *Patch {
	p := NewPatch(box, ghost, fields)
	for i := range p.data {
		p.data[i] = math.Float64frombits(r.Uint64())
	}
	return p
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRegionPrimitivesMatchReference holds AppendRegion, SetRegion and
// CopyRegion/CopyOverlap to the per-cell walks on random patches and regions
// of rank 1–3: same float order out, same cells written in, bit for bit.
func TestRegionPrimitivesMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for trial := 0; trial < 3000; trial++ {
		rank := 1 + trial%3
		ghost, fields := r.Intn(4), 1+r.Intn(3)
		p := randomPatch(r, randomBox(r, rank, 7), ghost, fields)
		// A region inside the padded box; every ~10th is empty.
		region := p.Padded().Intersect(randomBox(r, rank, 9))

		got := p.AppendRegion([]float64{42}, region)
		want := appendRegionReference([]float64{42}, p, region)
		if !sameBits(got, want) {
			t.Fatalf("trial %d: AppendRegion(%v) of %v differs from the cell walk", trial, region, p.Padded())
		}

		a, b := p.Clone(), p.Clone()
		data := make([]float64, len(want)-1)
		for i := range data {
			data[i] = math.Float64frombits(r.Uint64())
		}
		a.SetRegion(region, data)
		setRegionReference(b, region, data)
		if !sameBits(a.data, b.data) {
			t.Fatalf("trial %d: SetRegion(%v) of %v differs from the cell walk", trial, region, p.Padded())
		}

		// A neighbour overlapping p's padded box: copy by both routes.
		src := randomPatch(r, randomBox(r, rank, 7), ghost, fields)
		n := CopyOverlap(a, src)
		if m := copyOverlapReference(b, src); n != m || !sameBits(a.data, b.data) {
			t.Fatalf("trial %d: CopyOverlap %v <- %v copied %d cells, reference %d", trial, a.Padded(), src.Box, n, m)
		}
	}
}

func TestSetRegionPanicsOnWrongLength(t *testing.T) {
	p := NewPatch(geom.Box2(0, 0, 3, 3), 1, 2)
	defer func() {
		if recover() == nil {
			t.Error("SetRegion accepted a short payload")
		}
	}()
	p.SetRegion(geom.Box2(0, 0, 1, 1), make([]float64, 7))
}
