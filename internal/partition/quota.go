package partition

import (
	"samrpart/internal/geom"
)

// queueItem tracks a box moving through quota filling plus how many times
// it has been split (for the MaxSplitsPerBox cap).
type queueItem struct {
	box    geom.Box
	splits int
}

// fillQuotas is the core assignment engine shared by ACEHeterogeneous and
// ACEComposite: it walks the boxes in the given order and fills each node of
// nodeOrder up to its quota, splitting oversized boxes under the
// constraints. The final node absorbs any remainder.
//
// Boxes too small to split are assigned to the current node when at least
// half fits in its remaining quota, otherwise pushed to the next node; this
// bounds the residual imbalance the paper attributes to the minimum-box-size
// constraint.
func fillQuotas(boxes geom.BoxList, nodeOrder []int, quotas []float64, work WorkFunc, cons Constraints) *Assignment {
	k := len(quotas)
	a := &Assignment{
		// Sized for the common case of no split; a split appends past it.
		Boxes:  make(geom.BoxList, 0, len(boxes)),
		Owners: make([]int, 0, len(boxes)),
		Work:   make([]float64, k),
		Ideal:  append([]float64(nil), quotas...),
	}
	total := 0.0
	for _, b := range boxes {
		total += work(b)
	}
	eps := 1e-9 * (total + 1)

	queue := make([]queueItem, len(boxes))
	for i, b := range boxes {
		queue[i] = queueItem{box: b}
	}
	cur := 0
	assign := func(b geom.Box, node int, w float64) {
		a.Boxes = append(a.Boxes, b)
		a.Owners = append(a.Owners, node)
		a.Work[node] += w
	}
	for qi := 0; qi < len(queue); {
		item := queue[qi]
		node := nodeOrder[cur]
		w := work(item.box)
		rem := quotas[node] - a.Work[node]
		last := cur == k-1
		if last || w <= rem+eps {
			assign(item.box, node, w)
			qi++
			if !last && a.Work[node] >= quotas[node]-eps {
				cur++
			}
			continue
		}
		if rem <= eps {
			cur++
			continue
		}
		canSplit := cons.maxSplitsPerBox == 0 || item.splits < cons.maxSplitsPerBox
		if canSplit {
			if lo, hi, ok := trySplit(item.box, rem/w, cons); ok {
				// Replace the item with its low part and queue the high
				// part right after; the next iteration assigns the part
				// that fits.
				queue[qi] = queueItem{box: lo, splits: item.splits + 1}
				queue = append(queue, queueItem{})
				copy(queue[qi+2:], queue[qi+1:])
				queue[qi+1] = queueItem{box: hi, splits: item.splits + 1}
				continue
			}
		}
		// Unsplittable: accept bounded overshoot or defer to the next node.
		if rem >= 0.5*w {
			assign(item.box, node, w)
			qi++
			cur++
		} else {
			cur++
		}
	}
	return a
}

// trySplit cuts b so the low part holds approximately frac of its cells.
// Without SplitAllAxes the cut runs perpendicular to the longest axis (the
// paper's aspect-ratio rule); with it, the legal axis whose achievable cut
// fraction is closest to frac is chosen.
func trySplit(b geom.Box, frac float64, cons Constraints) (lo, hi geom.Box, ok bool) {
	minSide := cons.MinBoxSize
	if !cons.SplitAllAxes {
		return b.SplitFraction(b.LongestAxis(), frac, minSide)
	}
	bestAxis := -1
	bestErr := 2.0
	for d := 0; d < b.Rank; d++ {
		n := b.Size(d)
		if n < 2*minSide {
			continue
		}
		cut := int(float64(n)*frac + 0.5)
		if cut < minSide {
			cut = minSide
		}
		if cut > n-minSide {
			cut = n - minSide
		}
		err := absf(float64(cut)/float64(n) - frac)
		if err < bestErr {
			bestErr, bestAxis = err, d
		}
	}
	if bestAxis < 0 {
		return b, geom.Box{}, false
	}
	return b.SplitFraction(bestAxis, frac, minSide)
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
