package partition

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"samrpart/internal/geom"
)

// remapTiles builds the 6x6 tile grid (48x48 cells, 8-cell tiles) used by
// the movement experiments.
func remapTiles() geom.BoxList {
	var tiles geom.BoxList
	for y := 0; y < 48; y += 8 {
		for x := 0; x < 48; x += 8 {
			tiles = append(tiles, geom.Box2(x, y, x+7, y+7))
		}
	}
	return tiles
}

// movedCells counts the cells whose owner changes between two assignments
// over the same domain (same-level geometric overlap, matching the runtime's
// redistribution plan).
func movedCells(old, next *Assignment) int64 {
	var moved int64
	for i, nb := range next.Boxes {
		kept := int64(0)
		for j, ob := range old.Boxes {
			if ob.Level == nb.Level && old.Owners[j] == next.Owners[i] {
				kept += nb.Intersect(ob).Cells()
			}
		}
		moved += nb.Cells() - kept
	}
	return moved
}

// TestRemapOwnersCapacityRotation is the scenario the remap exists for: the
// capacity vector rotates between nodes, so the capacity-sorted partitioner
// produces the same geometric groups with permuted labels. The remap must
// recover the label permutation — strictly fewer moved cells — without
// giving up any balance.
func TestRemapOwnersCapacityRotation(t *testing.T) {
	tiles := remapTiles()
	h := NewHetero()
	prev, err := h.Partition(tiles, []float64{0.25, 0.375, 0.375}, CellWork)
	if err != nil {
		t.Fatal(err)
	}
	next, err := h.Partition(tiles, []float64{0.375, 0.375, 0.25}, CellWork)
	if err != nil {
		t.Fatal(err)
	}
	got := RemapOwners(prev, next)
	if got == next {
		t.Fatal("remap found no beneficial relabeling for a pure capacity rotation")
	}
	if err := got.Validate(tiles, CellWork); err != nil {
		t.Fatalf("remapped assignment invalid: %v", err)
	}
	if mi, base := got.MaxImbalance(), next.MaxImbalance(); mi > base+remapEps {
		t.Errorf("remap degraded balance: %.6f%% > %.6f%%", mi, base)
	}
	before, after := movedCells(prev, next), movedCells(prev, got)
	if after >= before {
		t.Errorf("remap did not reduce movement: %d >= %d cells", after, before)
	}
	var wantTotal, gotTotal float64
	for g := range next.Work {
		wantTotal += next.Work[g]
		gotTotal += got.Work[g]
	}
	if gotTotal != wantTotal {
		t.Errorf("remap changed total work: %g != %g", gotTotal, wantTotal)
	}
}

// TestRemapOwnersSwap checks the minimal beneficial case: two equal-share
// groups whose labels are exactly exchanged.
func TestRemapOwnersSwap(t *testing.T) {
	boxes := geom.BoxList{geom.Box2(0, 0, 7, 7), geom.Box2(8, 0, 15, 7)}
	prev := &Assignment{Boxes: boxes, Owners: []int{1, 0},
		Work: []float64{64, 64}, Ideal: []float64{64, 64}}
	next := &Assignment{Boxes: boxes, Owners: []int{0, 1},
		Work: []float64{64, 64}, Ideal: []float64{64, 64}}
	got := RemapOwners(prev, next)
	if got == next {
		t.Fatal("remap missed a pure label swap")
	}
	if got.Owners[0] != 1 || got.Owners[1] != 0 {
		t.Errorf("owners %v, want [1 0]", got.Owners)
	}
	if movedCells(prev, got) != 0 {
		t.Errorf("swap still moves %d cells", movedCells(prev, got))
	}
}

// TestRemapOwnersIdentityCases: inputs where the remap must return next
// untouched.
func TestRemapOwnersIdentityCases(t *testing.T) {
	boxes := geom.BoxList{geom.Box2(0, 0, 7, 7), geom.Box2(8, 0, 15, 7)}
	next := &Assignment{Boxes: boxes, Owners: []int{0, 1},
		Work: []float64{64, 64}, Ideal: []float64{64, 64}}
	if got := RemapOwners(nil, next); got != next {
		t.Error("nil prev must be a no-op")
	}
	mismatched := &Assignment{Boxes: boxes, Owners: []int{0, 0},
		Work: []float64{128}, Ideal: []float64{128}}
	if got := RemapOwners(mismatched, next); got != next {
		t.Error("node-count mismatch must be a no-op")
	}
	// prev == next layout: identity is already optimal.
	if got := RemapOwners(next, next); got != next {
		t.Error("already-affine assignment must be returned unchanged")
	}
}

// TestRemapOwnersRespectsBalance: the resident-optimal relabeling would move
// the big group onto the small node; the remap must refuse and keep the
// identity rather than trade balance for locality.
func TestRemapOwnersRespectsBalance(t *testing.T) {
	boxes := geom.BoxList{geom.Box2(0, 0, 9, 9), geom.Box2(10, 0, 14, 9)}
	prev := &Assignment{Boxes: boxes, Owners: []int{1, 0},
		Work: []float64{50, 100}, Ideal: []float64{100, 50}}
	next := &Assignment{Boxes: boxes, Owners: []int{0, 1},
		Work: []float64{100, 50}, Ideal: []float64{100, 50}}
	if got := RemapOwners(prev, next); got != next {
		t.Errorf("remap accepted a balance-degrading relabeling: owners %v", got.Owners)
	}
}

// TestRemapOwnersDeadRank: a zero-capacity (dead) node can never absorb a
// working group, even when the unmapped assignment's own imbalance is
// infinite (which would otherwise make every pairing look feasible).
func TestRemapOwnersDeadRank(t *testing.T) {
	boxes := geom.BoxList{geom.Box2(0, 0, 7, 7)}
	prev := &Assignment{Boxes: boxes, Owners: []int{1},
		Work: []float64{0, 64}, Ideal: []float64{0, 64}}
	next := &Assignment{Boxes: boxes, Owners: []int{0},
		Work: []float64{64, 0}, Ideal: []float64{64, 0}}
	if math.IsInf(prev.MaxImbalance(), 1) {
		t.Fatal("fixture sanity: prev should be balanced")
	}
	got := RemapOwners(prev, next)
	if got.Owners[0] != 0 {
		t.Errorf("remap assigned the working group to the dead rank: owners %v", got.Owners)
	}
}

// residentReference is RemapOwners' resident-volume table as it was computed
// before the same-box-list fast path: a spatial index over prev and one query
// per next box. Kept verbatim as the differential reference.
func residentReference(prev, next *Assignment, k int) []int64 {
	resident := make([]int64, k*k)
	idx := geom.NewIndex(prev.Boxes)
	var hits []int
	for i, nb := range next.Boxes {
		g := next.Owners[i]
		hits = idx.Query(nb, hits)
		for _, j := range hits {
			ob := prev.Boxes[j]
			if ob.Level != nb.Level {
				continue
			}
			resident[g*k+prev.Owners[j]] += nb.Intersect(ob).Cells()
		}
	}
	return resident
}

// TestResidentCellsMatchesReference holds the resident table to the indexed
// reference. On equal box lists — aliased and copied, two refinement levels
// stacked over the same cells, 2 to 5 ranks, owners drawn at random so every
// (group, rank) cell is hit — the table comes from the owner diff; on lists
// that differ (same tiles in another order, one tile halved, one level
// changed) the fast path must not be taken.
func TestResidentCellsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	tiles := remapTiles()
	for _, b := range remapTiles()[:12] {
		tiles = append(tiles, b.Refine(2)) // level 1 over the first two tile rows
	}
	random := func(boxes geom.BoxList, k int) *Assignment {
		a := &Assignment{Boxes: boxes, Owners: make([]int, len(boxes)), Work: make([]float64, k), Ideal: make([]float64, k)}
		for i, b := range boxes {
			a.Owners[i] = r.Intn(k)
			a.Work[a.Owners[i]] += CellWork(b)
		}
		return a
	}
	permuted := tiles.Clone()
	permuted[3], permuted[20] = permuted[20], permuted[3]
	halved := tiles.Clone()
	lo, hi := halved[5].Split(0, halved[5].Lo[0]+halved[5].Size(0)/2)
	halved[5] = lo
	halved = append(halved, hi)
	relevel := tiles.Clone()
	relevel[7].Level = 1
	for k := 2; k <= 5; k++ {
		prev := random(tiles, k)
		for name, boxes := range map[string]geom.BoxList{
			"aliased": tiles, "copied": tiles.Clone(),
			"permuted": permuted, "halved": halved, "relevelled": relevel,
		} {
			next := random(boxes, k)
			got, want := residentCells(prev, next, k), residentReference(prev, next, k)
			if !slices.Equal(got, want) {
				t.Fatalf("k=%d %s: resident table %v, reference %v", k, name, got, want)
			}
		}
	}
}

// TestRemapOwnersSameListAliasedOrCopied runs the capacity-rotation scenario
// with next's box list aliasing prev's and with a copy: the relabeling must
// not depend on which way "same tiling" was recognised.
func TestRemapOwnersSameListAliasedOrCopied(t *testing.T) {
	tiles := remapTiles()
	h := NewHetero()
	prev, err := h.Partition(tiles, []float64{0.25, 0.375, 0.375}, CellWork)
	if err != nil {
		t.Fatal(err)
	}
	next, err := h.Partition(tiles, []float64{0.375, 0.375, 0.25}, CellWork)
	if err != nil {
		t.Fatal(err)
	}
	if !prev.Boxes.Equal(next.Boxes) {
		t.Fatal("the rotation was expected to keep the box list")
	}
	aliased := *next
	aliased.Boxes = prev.Boxes
	a, b := RemapOwners(prev, next), RemapOwners(prev, &aliased)
	if a == next || !slices.Equal(a.Owners, b.Owners) || !slices.Equal(a.Work, b.Work) {
		t.Fatalf("relabeling differs between a copied (%v) and an aliased (%v) box list", a.Owners, b.Owners)
	}
}
