package sfc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"samrpart/internal/geom"
)

func TestBitsFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {32, 5}, {33, 6}, {128, 7},
	}
	for _, c := range cases {
		if got := bitsFor(c.n); got != c.want {
			t.Errorf("BitsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestMortonKnownValues(t *testing.T) {
	m := Morton{}
	// 2D, 2 bits: index = interleave(y into odd... axis 0 first in plane).
	cases := []struct {
		p    geom.Point
		want uint64
	}{
		{geom.Pt2(0, 0), 0},
		{geom.Pt2(1, 0), 2}, // x is axis 0: contributes the higher bit in each plane pair
		{geom.Pt2(0, 1), 1},
		{geom.Pt2(1, 1), 3},
		{geom.Pt2(2, 2), 12},
		{geom.Pt2(3, 3), 15},
	}
	for _, c := range cases {
		if got := m.Index(c.p, 2, 2); got != c.want {
			t.Errorf("Morton.Index(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func roundTrip(t *testing.T, c Curve, rank, bits int) {
	t.Helper()
	n := 1 << uint(bits)
	total := uint64(1)
	for d := 0; d < rank; d++ {
		total *= uint64(n)
	}
	seen := make(map[uint64]bool, total)
	var p geom.Point
	var walk func(d int)
	walk = func(d int) {
		if d == rank {
			idx := c.Index(p, rank, bits)
			if idx >= total {
				t.Fatalf("%s: index %d out of range for %v", c.Name(), idx, p)
			}
			if seen[idx] {
				t.Fatalf("%s: duplicate index %d at %v", c.Name(), idx, p)
			}
			seen[idx] = true
			if back := c.Point(idx, rank, bits); back != p {
				t.Fatalf("%s: Point(Index(%v)) = %v", c.Name(), p, back)
			}
			return
		}
		for v := 0; v < n; v++ {
			p[d] = v
			walk(d + 1)
		}
		p[d] = 0
	}
	walk(0)
	if uint64(len(seen)) != total {
		t.Fatalf("%s: covered %d of %d indices", c.Name(), len(seen), total)
	}
}

func TestBijection2D(t *testing.T) {
	roundTrip(t, Morton{}, 2, 4)
	roundTrip(t, Hilbert{}, 2, 4)
}

func TestBijection3D(t *testing.T) {
	roundTrip(t, Morton{}, 3, 3)
	roundTrip(t, Hilbert{}, 3, 3)
}

func TestHilbertAdjacency(t *testing.T) {
	// The defining locality property: consecutive Hilbert indices map to
	// lattice points at L1 distance exactly 1.
	h := Hilbert{}
	for _, tc := range []struct{ rank, bits int }{{2, 5}, {3, 3}} {
		total := uint64(1) << uint(tc.rank*tc.bits)
		prev := h.Point(0, tc.rank, tc.bits)
		for idx := uint64(1); idx < total; idx++ {
			p := h.Point(idx, tc.rank, tc.bits)
			dist := 0
			for d := 0; d < tc.rank; d++ {
				dd := p[d] - prev[d]
				if dd < 0 {
					dd = -dd
				}
				dist += dd
			}
			if dist != 1 {
				t.Fatalf("rank %d: indices %d->%d jump L1 distance %d (%v -> %v)",
					tc.rank, idx-1, idx, dist, prev, p)
			}
			prev = p
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	for _, c := range []Curve{Morton{}, Hilbert{}} {
		c := c
		f := func(x, y, z uint16, rankSeed uint8) bool {
			rank := 2 + int(rankSeed)%2
			bits := 16
			p := geom.Point{int(x), int(y), 0}
			if rank == 3 {
				p[2] = int(z)
			}
			idx := c.Index(p, rank, bits)
			return c.Point(idx, rank, bits) == p
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestQuickMonotoneWithinCell(t *testing.T) {
	// Index must be < 2^(rank*bits).
	cfg := &quick.Config{MaxCount: 1000}
	for _, c := range []Curve{Morton{}, Hilbert{}} {
		c := c
		f := func(x, y, z uint16) bool {
			p := geom.Pt3(int(x%256), int(y%256), int(z%256))
			return c.Index(p, 3, 8) < 1<<24
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestMapperOrdersByLocality(t *testing.T) {
	domain := geom.Box2(0, 0, 31, 31)
	m := NewMapper(Hilbert{}, domain, 2)
	// Two nearby boxes and one far box; the far one should not sit between
	// the near ones after sorting.
	l := geom.BoxList{
		geom.Box2(28, 28, 31, 31),
		geom.Box2(0, 0, 3, 3),
		geom.Box2(4, 0, 7, 3),
	}
	m.Sort(l)
	if !(l[0].Lo == geom.Pt2(0, 0) || l[0].Lo == geom.Pt2(4, 0)) {
		t.Errorf("sorted order starts with %v, want a near-origin box", l[0])
	}
	if l[1].Lo == geom.Pt2(28, 28) {
		t.Error("far box interleaved between near boxes")
	}
}

func TestMapperRefinedBoxesNest(t *testing.T) {
	domain := geom.Box2(0, 0, 31, 31)
	m := NewMapper(Morton{}, domain, 2)
	coarse := geom.Box2(8, 8, 11, 11)
	fine := coarse.Refine(2) // level 1 overlay of the same region
	ci, fi := m.BoxIndex(coarse), m.BoxIndex(fine)
	if ci != fi {
		t.Errorf("coarse index %d != overlaying fine index %d", ci, fi)
	}
}

func TestMapperDeterministicSort(t *testing.T) {
	domain := geom.Box3(0, 0, 0, 63, 63, 63)
	m := NewMapper(Hilbert{}, domain, 2)
	r := rand.New(rand.NewSource(11))
	var l geom.BoxList
	for i := 0; i < 40; i++ {
		x, y, z := r.Intn(56), r.Intn(56), r.Intn(56)
		l = append(l, geom.Box3(x, y, z, x+7, y+7, z+7))
	}
	a, b := l.Clone(), l.Clone()
	m.Sort(a)
	m.Sort(b)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("Mapper.Sort not deterministic")
		}
	}
}

func TestMapperPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMapper should panic on empty domain")
		}
	}()
	NewMapper(Morton{}, geom.Box{Rank: 2, Lo: geom.Pt2(1, 1), Hi: geom.Pt2(0, 0)}, 2)
}
