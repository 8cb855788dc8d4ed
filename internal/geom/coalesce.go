package geom

// CoalesceBounded greedily merges boxes that together form an exact
// rectilinear box (same level, equal extents on all axes but one, adjacent
// on that axis). Clustering and quota splitting can fragment a region into
// slivers; coalescing them back reduces per-box overheads (ghost halos,
// messages) without changing coverage. The result covers exactly the same
// cells.
//
// Merges that would produce a box with any side longer than maxSide are
// skipped (0 = unbounded). Callers that cap box sizes for partitioning
// granularity use the bound so coalescing cannot undo it.
//
// The merge is a fixed point of pairwise merging; with n input boxes it
// costs O(n^2) per pass and at most n-1 passes, fine for the box counts
// SAMR hierarchies produce.
func CoalesceBounded(l BoxList, maxSide int) BoxList {
	out := l.Clone()
	for {
		merged := false
		for i := 0; i < len(out) && !merged; i++ {
			for j := i + 1; j < len(out); j++ {
				m, ok := mergePair(out[i], out[j])
				if !ok {
					continue
				}
				if maxSide > 0 && m.Size(m.LongestAxis()) > maxSide {
					continue
				}
				out[i] = m
				out = append(out[:j], out[j+1:]...)
				merged = true
				break
			}
		}
		if !merged {
			return out
		}
	}
}

// mergePair merges two boxes if their union is exactly a box.
func mergePair(a, b Box) (Box, bool) {
	if a.Rank != b.Rank || a.Level != b.Level || a.Empty() || b.Empty() {
		return Box{}, false
	}
	// They must agree on every axis except one, where they are adjacent.
	diff := -1
	for d := 0; d < a.Rank; d++ {
		if a.Lo[d] == b.Lo[d] && a.Hi[d] == b.Hi[d] {
			continue
		}
		if diff >= 0 {
			return Box{}, false
		}
		diff = d
	}
	if diff < 0 {
		// Identical boxes (shouldn't happen in disjoint lists): keep one.
		return a, true
	}
	if a.Hi[diff]+1 == b.Lo[diff] || b.Hi[diff]+1 == a.Lo[diff] {
		return a.boundingUnion(b), true
	}
	return Box{}, false
}
