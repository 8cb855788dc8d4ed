package geom

import (
	"cmp"
	"slices"
)

// BoxList is an ordered collection of boxes, the unit of currency between the
// regridder (which produces the bounding-box list for each hierarchy level)
// and the partitioners (which assign boxes to processors).
type BoxList []Box

// TotalCells returns the summed cell count of the list.
func (l BoxList) TotalCells() int64 {
	var n int64
	for _, b := range l {
		n += b.Cells()
	}
	return n
}

// Equal reports whether the two lists hold identical boxes (levels
// included) in identical order. The repartition paths use it as the "same
// tiling" test — a repartition that moved ownership but not the box list
// keeps its spatial index and halo graph — so lists sharing storage (the
// steady state: views alias the standing list) compare in O(1), and only
// freshly built or decoded copies pay the content scan.
func (l BoxList) Equal(o BoxList) bool {
	if len(l) != len(o) {
		return false
	}
	if len(l) == 0 || &l[0] == &o[0] {
		return true
	}
	for i := range l {
		if !l[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Clone returns a copy of the list that shares no storage with l.
func (l BoxList) Clone() BoxList {
	out := make(BoxList, len(l))
	copy(out, l)
	return out
}

// Filter returns the boxes for which keep returns true.
func (l BoxList) Filter(keep func(Box) bool) BoxList {
	var out BoxList
	for _, b := range l {
		if keep(b) {
			out = append(out, b)
		}
	}
	return out
}

// SortBy orders the list by an arbitrary key, breaking ties
// deterministically by level then lower bound; boxes equal in all three keep
// their input order. The key is evaluated once per box, and a list already
// in order returns after that one pass.
func (l BoxList) SortBy(key func(Box) int64) {
	keys := make([]int64, len(l))
	perm := make([]int32, len(l))
	// The position as the last key makes the order total, so the unstable
	// sort of the permutation is the stable sort of the boxes.
	order := func(x, y int32) int {
		a, b := &l[x], &l[y]
		if c := cmp.Or(cmp.Compare(keys[x], keys[y]), cmp.Compare(a.Level, b.Level)); c != 0 || a.Lo == b.Lo {
			return cmp.Or(c, cmp.Compare(x, y))
		}
		if a.Lo.Less(b.Lo) {
			return -1
		}
		return 1
	}
	sorted := true
	for i, b := range l {
		keys[i], perm[i] = key(b), int32(i)
		sorted = sorted && (i == 0 || order(int32(i-1), int32(i)) < 0)
	}
	if sorted {
		return
	}
	slices.SortFunc(perm, order)
	unsorted := l.Clone()
	for i, from := range perm {
		l[i] = unsorted[from]
	}
}

// Disjoint reports whether no two boxes of the list overlap. Levels are
// respected: boxes on different levels never conflict.
func (l BoxList) Disjoint() bool {
	for i := range l {
		for j := i + 1; j < len(l); j++ {
			if l[i].Level == l[j].Level && l[i].Intersects(l[j]) {
				return false
			}
		}
	}
	return true
}

// BoundingBox returns the smallest box covering every box in the list; it
// returns ErrEmptyBox if the list has no non-empty box.
func (l BoxList) BoundingBox() (Box, error) {
	var acc Box
	found := false
	for _, b := range l {
		if b.Empty() {
			continue
		}
		if !found {
			acc = b
			found = true
			continue
		}
		acc = acc.boundingUnion(b)
	}
	if !found {
		return Box{}, errEmptyBox
	}
	return acc, nil
}
