package amr

import (
	"slices"
	"testing"

	"samrpart/internal/geom"
)

func TestPatchIndexing(t *testing.T) {
	p := NewPatch(geom.Box3(2, 2, 2, 5, 5, 5), 2, 3)
	if !p.Padded().Equal(geom.Box3(0, 0, 0, 7, 7, 7)) {
		t.Fatalf("Padded = %v", p.Padded())
	}
	p.Set(0, geom.Pt3(2, 2, 2), 1.5)
	p.Set(2, geom.Pt3(5, 5, 5), -2.0)
	p.Set(1, geom.Pt3(0, 0, 0), 7.0) // halo cell
	if p.At(0, geom.Pt3(2, 2, 2)) != 1.5 {
		t.Error("interior read-back failed")
	}
	if p.At(2, geom.Pt3(5, 5, 5)) != -2.0 {
		t.Error("field-2 read-back failed")
	}
	if p.At(1, geom.Pt3(0, 0, 0)) != 7.0 {
		t.Error("halo read-back failed")
	}
	if p.At(1, geom.Pt3(2, 2, 2)) != 0 {
		t.Error("fields bleed into each other")
	}
}

func TestPatchFieldLayout(t *testing.T) {
	p := NewPatch(geom.Box2(0, 0, 3, 3), 1, 2)
	// Field slice length equals padded cells.
	if len(p.Field(0)) != 36 {
		t.Fatalf("field size = %d, want 36", len(p.Field(0)))
	}
	// x-fastest: consecutive x cells differ by Stride(0)=1.
	p.Set(0, geom.Pt2(1, 2), 5)
	f := p.Field(0)
	idx := (2-(-1))*p.Stride(1) + (1 - (-1))
	if f[idx] != 5 {
		t.Error("layout is not x-fastest row-major with halo offset")
	}
}

func TestPatchFillAndNorms(t *testing.T) {
	p := NewPatch(geom.Box2(0, 0, 9, 9), 1, 2)
	p.Fill(0, -3)
	for i, v := range p.Field(0) {
		if v != -3 {
			t.Fatalf("Fill: field 0 cell %d = %g", i, v)
		}
	}
	for _, v := range p.Field(1) {
		if v != 0 {
			t.Fatal("Fill leaked across fields")
		}
	}
	p.FillAll(1)
	for f := 0; f < 2; f++ {
		for _, v := range p.Field(f) {
			if v != 1 {
				t.Fatalf("FillAll: field %d holds %g", f, v)
			}
		}
	}
}

func TestPatchEachInteriorCount(t *testing.T) {
	p := NewPatch(geom.Box3(0, 0, 0, 2, 3, 4), 2, 1)
	n := 0
	p.EachInterior(func(pt geom.Point) {
		if !p.Box.Contains(pt) {
			t.Fatalf("EachInterior left interior: %v", pt)
		}
		n++
	})
	if n != 3*4*5 {
		t.Errorf("visited %d cells, want 60", n)
	}
}

func TestPatchBytes(t *testing.T) {
	p := NewPatch(geom.Box2(0, 0, 7, 7), 0, 2)
	if p.Bytes() != 64*2*8 {
		t.Errorf("Bytes = %d", p.Bytes())
	}
}

func TestCopyOverlapIntoHalo(t *testing.T) {
	// Two adjacent patches; copying src into dst fills dst's halo with
	// src's interior values.
	dst := NewPatch(geom.Box2(0, 0, 3, 3), 1, 2)
	src := NewPatch(geom.Box2(4, 0, 7, 3), 1, 2)
	src.Fill(0, 9)
	src.Fill(1, 4)
	n := CopyOverlap(dst, src)
	// dst padded x extends to 4; src interior starts at 4 -> one plane of
	// 4 (y in -1..4 clipped to src rows 0..3): region x=4, y=0..3 -> 4 cells.
	if n != 4 {
		t.Errorf("copied %d cells, want 4", n)
	}
	if dst.At(0, geom.Pt2(4, 2)) != 9 || dst.At(1, geom.Pt2(4, 2)) != 4 {
		t.Error("halo not filled from neighbor interior")
	}
	// Interior untouched.
	if dst.At(0, geom.Pt2(3, 2)) != 0 {
		t.Error("CopyOverlap wrote outside the overlap")
	}
}

func TestCopyOverlapDisjoint(t *testing.T) {
	dst := NewPatch(geom.Box2(0, 0, 3, 3), 1, 1)
	src := NewPatch(geom.Box2(50, 50, 53, 53), 1, 1)
	if n := CopyOverlap(dst, src); n != 0 {
		t.Errorf("copied %d cells between disjoint patches", n)
	}
}

func TestPatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty box":   func() { NewPatch(geom.Box{Rank: 2, Lo: geom.Pt2(1, 1), Hi: geom.Pt2(0, 0)}, 1, 1) },
		"zero fields": func() { NewPatch(geom.Box2(0, 0, 1, 1), 1, 0) },
		"neg ghost":   func() { NewPatch(geom.Box2(0, 0, 1, 1), -1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestPatchReuse: a patch re-homes on a box of its own extents at any origin
// and level and then addresses exactly like a fresh patch there, over the
// same storage with every old value still in place; any other shape, halo
// width or field count is refused and leaves the patch as it was.
func TestPatchReuse(t *testing.T) {
	from := geom.Box3(4, 8, 0, 7, 13, 2) // 4 x 6 x 3
	p := NewPatch(from, 2, 2)
	for f := 0; f < 2; f++ {
		fd := p.Field(f)
		for i := range fd {
			fd[i] = float64(f*1000 + i)
		}
	}
	field0 := &p.Field(0)[0]

	to := geom.Box3(-20, 1, 30, -17, 6, 32).WithLevel(2)
	if !p.Reuse(to, 2, 2) {
		t.Fatalf("Reuse refused %v for a patch on %v", to, from)
	}
	fresh := NewPatch(to, 2, 2)
	if !p.Box.Equal(to) || !p.Padded().Equal(fresh.Padded()) {
		t.Fatalf("re-homed patch covers %v padded %v, want %v padded %v", p.Box, p.Padded(), to, fresh.Padded())
	}
	if &p.Field(0)[0] != field0 {
		t.Fatal("Reuse moved the storage")
	}
	for f := 0; f < 2; f++ {
		for i, v := range p.Field(f) {
			if v != float64(f*1000+i) {
				t.Fatalf("Reuse changed field %d cell %d to %g", f, i, v)
			}
		}
	}
	// Same addressing as the fresh patch: write through cell coordinates on
	// one, read the raw layout on the other.
	n := 0.0
	fresh.eachIn(fresh.Padded(), func(pt geom.Point) {
		for f := 0; f < 2; f++ {
			n++
			p.Set(f, pt, n)
			fresh.Set(f, pt, n)
		}
	})
	for f := 0; f < 2; f++ {
		if !slices.Equal(p.Field(f), fresh.Field(f)) {
			t.Fatalf("re-homed patch lays field %d out differently from a fresh patch", f)
		}
	}
	if got, want := p.AppendRegion(nil, to), fresh.AppendRegion(nil, to); !slices.Equal(got, want) {
		t.Fatal("AppendRegion over the interior differs from a fresh patch's")
	}

	before := *p
	for name, refuse := range map[string]func() bool{
		"longer axis":   func() bool { return p.Reuse(geom.Box3(0, 0, 0, 4, 5, 2), 2, 2) },
		"permuted axes": func() bool { return p.Reuse(geom.Box3(0, 0, 0, 5, 3, 2), 2, 2) },
		"lower rank":    func() bool { return p.Reuse(geom.Box2(0, 0, 3, 5), 2, 2) },
		"empty box":     func() bool { return p.Reuse(geom.Box3(0, 0, 0, 3, 5, -1), 2, 2) },
		"other ghost":   func() bool { return p.Reuse(to, 1, 2) },
		"other fields":  func() bool { return p.Reuse(to, 2, 3) },
	} {
		if refuse() {
			t.Errorf("%s: Reuse accepted", name)
		}
		if p.Box != before.Box || p.padded != before.padded || p.Ghost != 2 || p.NumFields != 2 || &p.data[0] != &before.data[0] {
			t.Fatalf("%s: a refused Reuse changed the patch", name)
		}
	}
}
