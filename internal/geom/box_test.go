package geom

import (
	"math/rand"
	"testing"
)

func TestBoxCells(t *testing.T) {
	cases := []struct {
		b    Box
		want int64
	}{
		{Box2(0, 0, 7, 7), 64},
		{Box3(0, 0, 0, 1, 1, 1), 8},
		{Box3(0, 0, 0, 127, 31, 31), 128 * 32 * 32},
		{Box2(5, 5, 5, 5), 1},
		{Box2(3, 0, 2, 4), 0}, // inverted x: empty
	}
	for _, c := range cases {
		if got := c.b.Cells(); got != c.want {
			t.Errorf("%v.Cells() = %d, want %d", c.b, got, c.want)
		}
	}
}

func TestBoxEmpty(t *testing.T) {
	if Box2(0, 0, 3, 3).Empty() {
		t.Error("non-empty box reported empty")
	}
	if !Box2(1, 1, 0, 4).Empty() {
		t.Error("inverted box not reported empty")
	}
	var zero Box
	if !zero.Empty() {
		t.Error("zero box (rank 0) should be empty")
	}
}

func TestIntersect(t *testing.T) {
	a := Box2(0, 0, 9, 9)
	b := Box2(5, 5, 14, 14)
	got := a.Intersect(b)
	want := Box2(5, 5, 9, 9)
	if !got.Equal(want) {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if got.Cells() != 25 {
		t.Errorf("Intersect cells = %d, want 25", got.Cells())
	}
	c := Box2(20, 20, 25, 25)
	if !a.Intersect(c).Empty() {
		t.Error("disjoint boxes intersect non-empty")
	}
}

func TestIntersectsSymmetry(t *testing.T) {
	a := Box3(0, 0, 0, 5, 5, 5)
	b := Box3(5, 5, 5, 9, 9, 9)
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("corner-touching boxes should intersect (inclusive bounds)")
	}
}

func TestContains(t *testing.T) {
	b := Box3(0, 0, 0, 9, 9, 9)
	if !b.Contains(Pt3(0, 0, 0)) || !b.Contains(Pt3(9, 9, 9)) {
		t.Error("box must contain its corners")
	}
	if b.Contains(Pt3(10, 0, 0)) {
		t.Error("box contains point past Hi")
	}
}

func TestGrow(t *testing.T) {
	b := Box2(4, 4, 7, 7)
	g := b.Grow(2)
	if !g.Equal(Box2(2, 2, 9, 9)) {
		t.Errorf("Grow(2) = %v", g)
	}
	if s := g.Grow(-2); !s.Equal(b) {
		t.Errorf("Grow(-2) did not undo Grow(2): %v", s)
	}
}

func TestRefineCoarsen(t *testing.T) {
	b := Box2(1, 2, 3, 4)
	r := b.Refine(2)
	if !r.Equal(Box{Rank: 2, Lo: Pt2(2, 4), Hi: Pt2(7, 9), Level: 1}) {
		t.Errorf("Refine(2) = %v", r)
	}
	if r.Cells() != b.Cells()*4 {
		t.Errorf("Refine(2) cells = %d, want %d", r.Cells(), b.Cells()*4)
	}
	c := r.Coarsen(2)
	if c.Lo != b.Lo || c.Hi != b.Hi || c.Level != 0 {
		t.Errorf("Coarsen(Refine(b)) = %v, want %v", c, b)
	}
}

func TestCoarsenRoundsOutward(t *testing.T) {
	b := Box2(1, 1, 2, 2) // fine box not aligned to ratio-2 boundaries
	c := b.Coarsen(2)
	// Coarse box must cover fine cells 1..2 -> coarse 0..1 on each axis.
	if c.Lo != Pt2(0, 0) || c.Hi != Pt2(1, 1) {
		t.Errorf("Coarsen = %v, want [0,0..1,1]", c)
	}
	// Negative indices round toward -inf.
	n := Box2(-3, -3, -1, -1).Coarsen(2)
	if n.Lo != Pt2(-2, -2) || n.Hi != Pt2(-1, -1) {
		t.Errorf("Coarsen negative = %v, want [-2,-2..-1,-1]", n)
	}
}

func TestSplit(t *testing.T) {
	b := Box2(0, 0, 9, 4)
	lo, hi := b.Split(0, 4)
	if !lo.Equal(Box2(0, 0, 3, 4)) || !hi.Equal(Box2(4, 0, 9, 4)) {
		t.Errorf("Split = %v | %v", lo, hi)
	}
	if lo.Cells()+hi.Cells() != b.Cells() {
		t.Error("Split does not preserve cells")
	}
	if lo.Intersects(hi) {
		t.Error("Split halves overlap")
	}
}

func TestSplitFraction(t *testing.T) {
	b := Box3(0, 0, 0, 31, 7, 7)
	lo, hi, ok := b.SplitFraction(0, 0.25, 4)
	if !ok {
		t.Fatal("SplitFraction failed unexpectedly")
	}
	if lo.Cells()+hi.Cells() != b.Cells() {
		t.Error("SplitFraction does not preserve cells")
	}
	if lo.Size(0) != 8 {
		t.Errorf("low x-extent = %d, want 8", lo.Size(0))
	}
	// Fraction is clamped to preserve the minimum side.
	lo, hi, ok = b.SplitFraction(0, 0.01, 4)
	if !ok || lo.Size(0) != 4 {
		t.Errorf("clamped low extent = %d (ok=%v), want 4", lo.Size(0), ok)
	}
	if hi.Size(0) != 28 {
		t.Errorf("clamped high extent = %d, want 28", hi.Size(0))
	}
	// Axis too short to honour min side on both parts.
	if _, _, ok := Box2(0, 0, 5, 5).SplitFraction(0, 0.5, 4); ok {
		t.Error("SplitFraction should fail when 2*minSide exceeds extent")
	}
}

func TestSubtract(t *testing.T) {
	b := Box2(0, 0, 9, 9)
	inner := Box2(3, 3, 6, 6)
	parts := b.Subtract(inner)
	var cells int64
	for _, p := range parts {
		cells += p.Cells()
		if p.Intersects(inner) {
			t.Errorf("Subtract part %v overlaps subtrahend", p)
		}
	}
	if cells != b.Cells()-inner.Cells() {
		t.Errorf("Subtract cells = %d, want %d", cells, b.Cells()-inner.Cells())
	}
	if got := BoxList(parts); !got.Disjoint() {
		t.Error("Subtract parts overlap each other")
	}
	// Full overlap removes everything.
	if parts := inner.Subtract(b); len(parts) != 0 {
		t.Errorf("Subtract full cover produced %d parts", len(parts))
	}
	// No overlap keeps the original.
	far := Box2(100, 100, 101, 101)
	if parts := b.Subtract(far); len(parts) != 1 || !parts[0].Equal(b) {
		t.Errorf("Subtract disjoint = %v", parts)
	}
}

func TestAspectRatioAndAxes(t *testing.T) {
	b := Box3(0, 0, 0, 15, 3, 7)
	if b.LongestAxis() != 0 {
		t.Errorf("LongestAxis = %d, want 0", b.LongestAxis())
	}
	if b.shortestAxis() != 1 {
		t.Errorf("ShortestAxis = %d, want 1", b.shortestAxis())
	}
	if ar := b.AspectRatio(); ar != 4.0 {
		t.Errorf("AspectRatio = %g, want 4", ar)
	}
}

func TestBoundingUnion(t *testing.T) {
	a := Box2(0, 0, 3, 3)
	b := Box2(10, 10, 12, 12)
	u := a.boundingUnion(b)
	if !containsBox(u, a) || !containsBox(u, b) {
		t.Error("BoundingUnion does not contain operands")
	}
	if !a.boundingUnion(Box{Rank: 2, Lo: Pt2(1, 1), Hi: Pt2(0, 0)}).Equal(a) {
		t.Error("BoundingUnion with empty should return the other operand")
	}
}

func TestPointOps(t *testing.T) {
	p, q := Pt3(1, 2, 3), Pt3(4, 0, 3)
	if p.Sub(q) != Pt3(-3, 2, 0) {
		t.Error("Sub wrong")
	}
	if p.Scale(2) != Pt3(2, 4, 6) {
		t.Error("Scale wrong")
	}
	if p.Min(q) != Pt3(1, 0, 3) || p.Max(q) != Pt3(4, 2, 3) {
		t.Error("Min/Max wrong")
	}
	if !p.Less(q) || q.Less(p) {
		t.Error("Less wrong")
	}
	if Pt3(-5, 0, 0).DivFloor(2) != Pt3(-3, 0, 0) {
		t.Error("DivFloor should round toward -inf")
	}
}

// FuzzIntersects holds the bounds-only Intersects to its definition,
// !Intersect().Empty(), over ranks 0-3 including inverted (empty) bounds on
// either side and operands of different rank.
func FuzzIntersects(f *testing.F) {
	f.Add(2, 2, 0, 0, 0, 3, 3, 0, 2, 2, 0, 5, 5, 0)
	f.Add(3, 3, 0, 0, 0, 3, 3, 3, 4, 0, 0, 7, 3, 3) // face neighbours: disjoint
	f.Add(1, 1, 0, 0, 0, 9, 0, 0, 9, 0, 0, 12, 0, 0)
	f.Add(2, 2, 5, 0, 0, 1, 3, 0, 0, 0, 0, 9, 9, 0) // b empty
	f.Add(0, 3, 0, 0, 0, 3, 3, 3, 0, 0, 0, 3, 3, 3) // rank 0
	f.Add(3, 2, 0, 0, 0, 3, 3, 3, 1, 1, 0, 2, 2, 0) // mixed rank
	f.Fuzz(func(t *testing.T, rb, ro, bx0, by0, bz0, bx1, by1, bz1, ox0, oy0, oz0, ox1, oy1, oz1 int) {
		rank := func(r int) int { return ((r % 4) + 4) % 4 }
		b := Box{Rank: rank(rb), Lo: Pt3(bx0, by0, bz0), Hi: Pt3(bx1, by1, bz1)}
		o := Box{Rank: rank(ro), Lo: Pt3(ox0, oy0, oz0), Hi: Pt3(ox1, oy1, oz1)}
		if got, want := b.Intersects(o), !b.Intersect(o).Empty(); got != want {
			t.Fatalf("%v (rank %d) Intersects %v (rank %d) = %v, Intersect().Empty() says %v", b, b.Rank, o, o.Rank, got, want)
		}
	})
}

// TestIntersectsMatchesIntersect runs the FuzzIntersects property over
// seeded random boxes (go test without -fuzz only replays the corpus).
func TestIntersectsMatchesIntersect(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	mk := func() Box {
		b := Box{Rank: r.Intn(4)}
		for d := 0; d < MaxDim; d++ {
			b.Lo[d] = r.Intn(17) - 8
			b.Hi[d] = b.Lo[d] + r.Intn(12) - 2 // inverted about one time in six
		}
		return b
	}
	hits := 0
	for i := 0; i < 20000; i++ {
		b, o := mk(), mk()
		want := !b.Intersect(o).Empty()
		if got := b.Intersects(o); got != want {
			t.Fatalf("%v (rank %d) Intersects %v (rank %d) = %v, want %v", b, b.Rank, o, o.Rank, got, want)
		}
		if want {
			hits++
		}
	}
	if hits < 1000 || hits > 19000 {
		t.Fatalf("generator is lopsided: %d of 20000 pairs intersect", hits)
	}
}
