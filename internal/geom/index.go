package geom

import (
	"math"
	"sort"
)

// Index is a uniform-grid spatial index over a fixed BoxList, built once per
// assignment and queried with candidate boxes. It replaces all-pairs O(n²)
// overlap scans with near-linear bucket lookups: each refinement level's
// boxes are binned into a grid of roughly n^(1/rank) buckets per axis, so a
// query only visits the buckets its probe overlaps.
//
// The index is read-only after construction, but Query shares the built-in
// dedup scratch, so plain Query calls are NOT safe for concurrent use.
// Concurrent readers use QueryWith, each holding its own QueryScratch: the
// grids themselves are never written after NewIndex returns.
type Index struct {
	boxes BoxList
	grids []levelGrid
	s     QueryScratch
}

// QueryScratch holds the per-query dedup stamps (one per indexed box). The
// zero value is ready to use; one scratch must not be shared between
// concurrent QueryWith calls, but any number of goroutines may query one
// Index concurrently with distinct scratches.
type QueryScratch struct {
	seen  []int // per-box stamp of the query that last visited it
	epoch int
}

// levelGrid is the bucket grid for one refinement level. Levels get separate
// grids because their index spaces have different scales; queries still span
// every grid, matching Box.Intersect's purely geometric semantics.
type levelGrid struct {
	bounds Box
	cell   [MaxDim]int // bucket edge length per axis (>= 1)
	dims   [MaxDim]int // bucket count per axis (>= 1)
	start  []int32     // CSR offsets into items, len = buckets+1
	items  []int32     // box indexes, bucket-major
}

// NewIndex builds the index over boxes. Empty boxes are skipped — they can
// never intersect anything. The caller must not mutate boxes afterwards.
func NewIndex(boxes BoxList) *Index {
	ix := &Index{boxes: boxes}
	byLevel := map[int][]int{}
	var levels []int
	for i, b := range boxes {
		if b.Empty() {
			continue
		}
		if _, ok := byLevel[b.Level]; !ok {
			levels = append(levels, b.Level)
		}
		byLevel[b.Level] = append(byLevel[b.Level], i)
	}
	sort.Ints(levels)
	for _, l := range levels {
		ix.grids = append(ix.grids, buildLevelGrid(boxes, byLevel[l]))
	}
	return ix
}

// buildLevelGrid bins one level's boxes into a CSR bucket grid.
func buildLevelGrid(boxes BoxList, idxs []int) levelGrid {
	g := levelGrid{bounds: boxes[idxs[0]]}
	for _, i := range idxs[1:] {
		g.bounds = g.bounds.boundingUnion(boxes[i])
	}
	rank := g.bounds.Rank
	per := int(math.Ceil(math.Pow(float64(len(idxs)), 1/float64(rank))))
	if per < 1 {
		per = 1
	}
	buckets := 1
	for d := 0; d < MaxDim; d++ {
		g.dims[d], g.cell[d] = 1, 1
		if d < rank {
			n := min(per, g.bounds.Size(d))
			g.cell[d] = (g.bounds.Size(d) + n - 1) / n
			g.dims[d] = (g.bounds.Size(d) + g.cell[d] - 1) / g.cell[d]
		}
		buckets *= g.dims[d]
	}
	counts := make([]int32, buckets+1)
	for _, i := range idxs {
		g.eachBucket(boxes[i], func(b int) { counts[b+1]++ })
	}
	for b := 0; b < buckets; b++ {
		counts[b+1] += counts[b]
	}
	g.start = counts
	g.items = make([]int32, g.start[buckets])
	fill := make([]int32, buckets)
	for _, i := range idxs {
		g.eachBucket(boxes[i], func(b int) {
			g.items[int(g.start[b])+int(fill[b])] = int32(i)
			fill[b]++
		})
	}
	return g
}

// bucketRange maps a box to the clamped bucket-coordinate range it covers;
// ok is false when the box misses the grid entirely.
func (g *levelGrid) bucketRange(b Box) (lo, hi [MaxDim]int, ok bool) {
	clip := b.Intersect(g.bounds)
	if clip.Empty() {
		return lo, hi, false
	}
	for d := 0; d < MaxDim; d++ {
		lo[d] = (clip.Lo[d] - g.bounds.Lo[d]) / g.cell[d]
		hi[d] = (clip.Hi[d] - g.bounds.Lo[d]) / g.cell[d]
	}
	return lo, hi, true
}

// eachBucket calls fn with the linear id of every bucket b covers.
func (g *levelGrid) eachBucket(b Box, fn func(int)) {
	lo, hi, ok := g.bucketRange(b)
	if !ok {
		return
	}
	for z := lo[2]; z <= hi[2]; z++ {
		for y := lo[1]; y <= hi[1]; y++ {
			base := (z*g.dims[1] + y) * g.dims[0]
			for x := lo[0]; x <= hi[0]; x++ {
				fn(base + x)
			}
		}
	}
}

// Query appends to out (truncated first) the indexes of every box sharing at
// least one cell with probe, in ascending order. Like Box.Intersect the test
// is purely geometric — levels are not compared — so callers that care about
// levels filter the result. Pass the previous call's slice as out to avoid
// allocation.
func (ix *Index) Query(probe Box, out []int) []int {
	return ix.QueryWith(&ix.s, probe, out)
}

// QueryWith is Query with caller-owned dedup scratch, the concurrency-safe
// form: the index itself is read-only, so any number of goroutines may call
// QueryWith on one Index as long as each holds its own QueryScratch. Results
// are identical to Query for the same probe.
func (ix *Index) QueryWith(s *QueryScratch, probe Box, out []int) []int {
	out = out[:0]
	if probe.Empty() {
		return out
	}
	if len(s.seen) < len(ix.boxes) {
		s.seen = make([]int, len(ix.boxes))
		s.epoch = 0
	}
	s.epoch++
	for gi := range ix.grids {
		g := &ix.grids[gi]
		lo, hi, ok := g.bucketRange(probe)
		if !ok {
			continue
		}
		for z := lo[2]; z <= hi[2]; z++ {
			for y := lo[1]; y <= hi[1]; y++ {
				base := (z*g.dims[1] + y) * g.dims[0]
				for x := lo[0]; x <= hi[0]; x++ {
					bk := base + x
					for _, it := range g.items[g.start[bk]:g.start[bk+1]] {
						i := int(it)
						if s.seen[i] == s.epoch {
							continue
						}
						s.seen[i] = s.epoch
						if probe.Intersects(ix.boxes[i]) {
							out = append(out, i)
						}
					}
				}
			}
		}
	}
	sort.Ints(out)
	return out
}
