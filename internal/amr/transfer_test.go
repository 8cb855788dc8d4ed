package amr

import (
	"math"
	"testing"

	"samrpart/internal/geom"
)

func TestProlongPiecewiseConstant(t *testing.T) {
	coarse := NewPatch(geom.Box2(0, 0, 3, 3), 1, 1)
	coarse.EachInterior(func(pt geom.Point) {
		coarse.Set(0, pt, float64(pt[0]*10+pt[1]))
	})
	fine := NewPatch(geom.Box2(0, 0, 7, 7).WithLevel(1), 1, 1)
	n := Prolong(fine, coarse, 2)
	if n == 0 {
		t.Fatal("Prolong filled nothing")
	}
	fine.EachInterior(func(pt geom.Point) {
		cp := pt.DivFloor(2)
		want := float64(cp[0]*10 + cp[1])
		if fine.At(0, pt) != want {
			t.Fatalf("fine%v = %g, want %g", pt, fine.At(0, pt), want)
		}
	})
}

func TestProlongFillsHalo(t *testing.T) {
	coarse := NewPatch(geom.Box2(0, 0, 7, 7), 0, 1)
	coarse.Fill(0, 3)
	// Fine patch in the middle; its halo lies under the coarse patch.
	fine := NewPatch(geom.Box2(4, 4, 9, 9).WithLevel(1), 2, 1)
	Prolong(fine, coarse, 2)
	if fine.At(0, geom.Pt2(2, 4)) != 3 {
		t.Error("halo cell not prolonged")
	}
}

func TestRestrictAverages(t *testing.T) {
	fine := NewPatch(geom.Box2(0, 0, 7, 7).WithLevel(1), 0, 1)
	// Fine value = fine x index; coarse cell (i,j) averages x = 2i, 2i+1.
	fine.EachInterior(func(pt geom.Point) {
		fine.Set(0, pt, float64(pt[0]))
	})
	coarse := NewPatch(geom.Box2(0, 0, 3, 3), 0, 1)
	n := Restrict(coarse, fine, 2)
	if n != 16 {
		t.Fatalf("Restrict updated %d cells, want 16", n)
	}
	coarse.EachInterior(func(pt geom.Point) {
		want := float64(2*pt[0]) + 0.5
		if math.Abs(coarse.At(0, pt)-want) > 1e-12 {
			t.Fatalf("coarse%v = %g, want %g", pt, coarse.At(0, pt), want)
		}
	})
}

func TestRestrictPartialCoverage(t *testing.T) {
	// Fine patch covers only part of the coarse patch; uncovered coarse
	// cells must be untouched, and partially covered blocks skipped.
	fine := NewPatch(geom.Box2(2, 2, 5, 5).WithLevel(1), 0, 1)
	fine.Fill(0, 8)
	coarse := NewPatch(geom.Box2(0, 0, 3, 3), 0, 1)
	coarse.Fill(0, -1)
	n := Restrict(coarse, fine, 2)
	if n != 4 {
		t.Fatalf("Restrict updated %d cells, want 4", n)
	}
	if coarse.At(0, geom.Pt2(1, 1)) != 8 || coarse.At(0, geom.Pt2(2, 2)) != 8 {
		t.Error("covered coarse cells not restricted")
	}
	if coarse.At(0, geom.Pt2(0, 0)) != -1 || coarse.At(0, geom.Pt2(3, 3)) != -1 {
		t.Error("uncovered coarse cells modified")
	}
}

func TestRestrictConservation3D(t *testing.T) {
	// Restriction preserves the mean over a fully covered coarse region.
	fine := NewPatch(geom.Box3(0, 0, 0, 7, 7, 7).WithLevel(1), 0, 1)
	sum := 0.0
	fine.EachInterior(func(pt geom.Point) {
		v := float64(pt[0] + 2*pt[1] + 3*pt[2])
		fine.Set(0, pt, v)
		sum += v
	})
	coarse := NewPatch(geom.Box3(0, 0, 0, 3, 3, 3), 0, 1)
	Restrict(coarse, fine, 2)
	csum := 0.0
	coarse.EachInterior(func(pt geom.Point) { csum += coarse.At(0, pt) })
	if math.Abs(csum*8-sum) > 1e-9 {
		t.Errorf("restriction not conservative: coarse*8 = %g, fine = %g", csum*8, sum)
	}
}

func TestTransferFieldMismatchPanics(t *testing.T) {
	c := NewPatch(geom.Box2(0, 0, 3, 3), 0, 1)
	f := NewPatch(geom.Box2(0, 0, 7, 7).WithLevel(1), 0, 2)
	for name, fn := range map[string]func(){
		"prolong":  func() { Prolong(f, c, 2) },
		"restrict": func() { Restrict(c, f, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on field mismatch", name)
				}
			}()
			fn()
		}()
	}
}

// TestTransferAllocatesNothing: both operators run on the per-step halo
// and restriction path, so they must not allocate.
func TestTransferAllocatesNothing(t *testing.T) {
	coarse := NewPatch(geom.Box3(0, 0, 0, 7, 7, 7), 1, 5)
	fine := NewPatch(geom.Box3(4, 4, 4, 11, 11, 11).WithLevel(1), 2, 5)
	if n := testing.AllocsPerRun(10, func() {
		Prolong(fine, coarse, 2)
		Restrict(coarse, fine, 2)
	}); n != 0 {
		t.Fatalf("Prolong+Restrict allocate %v times per call", n)
	}
}
