package partition

import (
	"math"
	"sort"

	"samrpart/internal/capacity"
	"samrpart/internal/geom"
)

// remapEps is the slack (in imbalance percentage points) a relabeling may
// add over the unmapped assignment's maximum imbalance. It only absorbs
// floating-point noise: the remap is not allowed to trade balance for
// locality.
const remapEps = 1e-6

// RemapOwners relabels the ownership groups of next to minimize data
// movement away from prev: each group of boxes that next assigns to one node
// is re-assigned, greedily by resident volume, to the node already holding
// the most of its cells in prev. A relabeling is only admitted when it keeps
// every node's imbalance within the unmapped assignment's maximum (plus
// floating-point slack), so the partition's balance is preserved while its
// migration volume shrinks — the movement-aware step of the repartitioning
// trade-off. Capacity-aware partitioners sort nodes by capacity, so a
// capacity change that merely permutes the node ordering relabels the whole
// assignment even when the box geometry barely moves; this undoes exactly
// that.
//
// The result aliases next's Boxes and Ideal (assignments are treated as
// immutable); next itself is returned unchanged when no beneficial feasible
// relabeling exists, when prev is nil, or when the node counts differ.
func RemapOwners(prev, next *Assignment) *Assignment {
	k := next.numNodes()
	if prev == nil || prev.numNodes() != k || k < 2 {
		return next
	}
	resident := residentCells(prev, next, k)
	maxImb := next.MaxImbalance()
	// feasible reports whether group g may run on rank r without exceeding
	// the unmapped assignment's balance. A dead/zero-capacity rank can never
	// absorb work, even when maxImb is +Inf.
	feasible := func(g, r int) bool {
		if next.Work[g] > 0 && next.Ideal[r] == 0 {
			return false
		}
		if math.IsInf(maxImb, 1) {
			return true
		}
		return capacity.Imbalance(next.Work[g], next.Ideal[r]) <= maxImb+remapEps
	}
	type pair struct {
		g, r int
		res  int64
	}
	pairs := make([]pair, 0, k*k)
	for g := 0; g < k; g++ {
		for r := 0; r < k; r++ {
			if feasible(g, r) {
				pairs = append(pairs, pair{g: g, r: r, res: resident[g*k+r]})
			}
		}
	}
	sort.Slice(pairs, func(x, y int) bool {
		if pairs[x].res != pairs[y].res {
			return pairs[x].res > pairs[y].res
		}
		if pairs[x].g != pairs[y].g {
			return pairs[x].g < pairs[y].g
		}
		return pairs[x].r < pairs[y].r
	})
	rankOf := make([]int, k) // group -> rank
	taken := make([]bool, k)
	for i := range rankOf {
		rankOf[i] = -1
	}
	matched := 0
	for _, p := range pairs {
		if rankOf[p.g] >= 0 || taken[p.r] {
			continue
		}
		rankOf[p.g] = p.r
		taken[p.r] = true
		matched++
	}
	// The greedy pass can strand a group whose only feasible ranks were
	// taken; the identity relabeling is always feasible, so fall back to it
	// rather than degrade balance. The same fallback applies when greedy
	// choices block each other into a matching no more resident than the
	// identity: the remap never increases movement.
	if matched != k {
		return next
	}
	identity, kept, greedy := true, int64(0), int64(0)
	for g, r := range rankOf {
		if g != r {
			identity = false
		}
		kept += resident[g*k+g]
		greedy += resident[g*k+r]
	}
	if identity || greedy <= kept {
		return next
	}
	owners := make([]int, len(next.Owners))
	for i, g := range next.Owners {
		owners[i] = rankOf[g]
	}
	work := make([]float64, k)
	for g, r := range rankOf {
		work[r] = next.Work[g]
	}
	return &Assignment{Boxes: next.Boxes, Owners: owners, Work: work, Ideal: next.Ideal}
}

// residentCells returns resident[g*k+r], the cells of next's group g already
// resident on rank r under prev (same-level overlap only: cross-level index
// spaces have different scales). When the repartition kept the box list a box
// overlaps exactly itself — an assignment's boxes are disjoint within a
// level — so the table is one pass over the owner tables; otherwise every
// next box is probed against a spatial index over prev.
func residentCells(prev, next *Assignment, k int) []int64 {
	resident := make([]int64, k*k)
	if prev.Boxes.Equal(next.Boxes) {
		for i, nb := range next.Boxes {
			resident[next.Owners[i]*k+prev.Owners[i]] += nb.Cells()
		}
		return resident
	}
	idx := geom.NewIndex(prev.Boxes)
	var hits []int
	for i, nb := range next.Boxes {
		hits = idx.Query(nb, hits)
		for _, j := range hits {
			if ob := prev.Boxes[j]; ob.Level == nb.Level {
				resident[next.Owners[i]*k+prev.Owners[j]] += nb.Intersect(ob).Cells()
			}
		}
	}
	return resident
}
