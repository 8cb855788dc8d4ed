package geom

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestBoxListTotals(t *testing.T) {
	l := BoxList{Box2(0, 0, 3, 3), Box2(10, 0, 13, 3).WithLevel(1)}
	if l.TotalCells() != 32 {
		t.Errorf("TotalCells = %d, want 32", l.TotalCells())
	}
	if BoxList(nil).TotalCells() != 0 {
		t.Error("empty list should total 0")
	}
}

func TestBoxListSortByCells(t *testing.T) {
	l := BoxList{
		Box2(0, 0, 9, 9),   // 100
		Box2(0, 0, 1, 1),   // 4
		Box2(0, 0, 4, 4),   // 25
		Box2(20, 0, 21, 1), // 4, later origin
	}
	l.SortBy(Box.Cells)
	want := []int64{4, 4, 25, 100}
	for i, b := range l {
		if b.Cells() != want[i] {
			t.Fatalf("pos %d cells = %d, want %d", i, b.Cells(), want[i])
		}
	}
	// Deterministic tie-break: (0,0) before (20,0).
	if l[0].Lo != Pt2(0, 0) {
		t.Error("tie-break by lower bound violated")
	}
}

func TestBoxListSortByStable(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var l BoxList
	for i := 0; i < 50; i++ {
		l = append(l, genBox(r))
	}
	a := l.Clone()
	b := l.Clone()
	a.SortBy(Box.Cells)
	b.SortBy(Box.Cells)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("SortBy(Box.Cells) not deterministic")
		}
	}
}

func TestBoxListCloneIndependent(t *testing.T) {
	l := BoxList{Box2(0, 0, 1, 1)}
	c := l.Clone()
	c[0] = Box2(5, 5, 6, 6)
	if !l[0].Equal(Box2(0, 0, 1, 1)) {
		t.Error("Clone shares storage")
	}
}

func TestBoxListDisjoint(t *testing.T) {
	ok := BoxList{Box2(0, 0, 3, 3), Box2(4, 0, 7, 3)}
	if !ok.Disjoint() {
		t.Error("adjacent boxes reported overlapping")
	}
	bad := BoxList{Box2(0, 0, 3, 3), Box2(3, 3, 7, 7)}
	if bad.Disjoint() {
		t.Error("overlapping boxes reported disjoint")
	}
	levels := BoxList{Box2(0, 0, 3, 3), Box2(0, 0, 3, 3).WithLevel(1)}
	if !levels.Disjoint() {
		t.Error("same region on different levels should not conflict")
	}
}

func TestBoxListBoundingBox(t *testing.T) {
	l := BoxList{Box2(0, 0, 3, 3), Box2(10, 10, 12, 12)}
	bb, err := l.BoundingBox()
	if err != nil {
		t.Fatal(err)
	}
	if !bb.Equal(Box2(0, 0, 12, 12)) {
		t.Errorf("BoundingBox = %v", bb)
	}
	if _, err := BoxList(nil).BoundingBox(); err != errEmptyBox {
		t.Errorf("empty BoundingBox err = %v, want ErrEmptyBox", err)
	}
}

func TestBoxListFilter(t *testing.T) {
	l := BoxList{Box2(0, 0, 0, 0), Box2(0, 0, 9, 9)}
	big := l.Filter(func(b Box) bool { return b.Cells() > 10 })
	if len(big) != 1 || big[0].Cells() != 100 {
		t.Errorf("Filter = %v", big)
	}
}

// sortByReference is SortBy as it stood before the key was cached and the
// reflect-based swapper dropped, kept verbatim as the differential reference.
func sortByReference(l BoxList, key func(Box) int64) {
	sort.SliceStable(l, func(i, j int) bool {
		ki, kj := key(l[i]), key(l[j])
		if ki != kj {
			return ki < kj
		}
		if l[i].Level != l[j].Level {
			return l[i].Level < l[j].Level
		}
		return l[i].Lo.Less(l[j].Lo)
	})
}

// TestSortByMatchesReference holds SortBy to the sort.SliceStable reference
// on lists with duplicate keys, mixed levels and boxes that tie in all three
// sort keys (same level and lower bound, different upper bound — only input
// order separates them), from random, already-sorted and reversed input, and
// checks the key is evaluated exactly once per box.
func TestSortByMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	keys := map[string]func(Box) int64{
		"cells":    func(b Box) int64 { return b.Cells() },
		"constant": func(Box) int64 { return 0 },
		"few":      func(b Box) int64 { return int64(b.Lo[0]) & 3 },
		"negative": func(b Box) int64 { return -int64(b.Size(0)) },
	}
	for n := 0; n <= 300; n = 2*n + 1 {
		var l BoxList
		for i := 0; i < n; i++ {
			b := genBox(r).WithLevel(r.Intn(3))
			l = append(l, b)
			if r.Intn(4) == 0 { // a full tie with the box just added
				b.Hi[0] += 1 + r.Intn(3)
				l = append(l, b)
			}
		}
		for name, key := range keys {
			sorted := l.Clone()
			sortByReference(sorted, key)
			reversed := sorted.Clone()
			slices.Reverse(reversed)
			for order, in := range map[string]BoxList{"random": l, "sorted": sorted, "reversed": reversed} {
				got, want := in.Clone(), in.Clone()
				calls := 0
				got.SortBy(func(b Box) int64 { calls++; return key(b) })
				sortByReference(want, key)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d key=%s input=%s: SortBy differs from the SliceStable reference", len(in), name, order)
				}
				if calls != len(in) {
					t.Fatalf("n=%d key=%s input=%s: key evaluated %d times", len(in), name, order, calls)
				}
			}
		}
	}
}

// TestBoxListEqual covers the shared-storage fast path beside the content
// scan: aliases and copies are equal, a prefix or a changed box is not.
func TestBoxListEqual(t *testing.T) {
	l := BoxList{Box2(0, 0, 3, 3), Box2(4, 0, 7, 3).WithLevel(1)}
	changed := l.Clone()
	changed[1].Level = 0
	for _, tc := range []struct {
		name string
		o    BoxList
		want bool
	}{
		{"alias", l, true}, {"copy", l.Clone(), true}, {"prefix", l[:1], false},
		{"changed", changed, false}, {"nil", nil, false},
	} {
		if got := l.Equal(tc.o); got != tc.want {
			t.Errorf("%s: Equal = %v, want %v", tc.name, got, tc.want)
		}
	}
	if !BoxList(nil).Equal(BoxList{}) {
		t.Error("empty lists must be equal")
	}
}
