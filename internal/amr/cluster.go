package amr

import (
	"fmt"

	"samrpart/internal/geom"
)

// ClusterOptions controls the Berger–Rigoutsos point-clustering algorithm.
type ClusterOptions struct {
	// Efficiency is the minimum fraction of cells inside an accepted box
	// that must be flagged (Berger–Rigoutsos use ~0.7-0.8).
	Efficiency float64
	// MinSide is the minimum box extent per axis; cuts that would violate
	// it are rejected. Must be >= 1.
	MinSide int
	// MaxSide, if > 0, forces boxes longer than it to be cut even when
	// efficient, keeping partitioning granularity workable.
	MaxSide int
}

// DefaultClusterOptions are reasonable Berger–Rigoutsos settings for the
// paper's workloads.
func DefaultClusterOptions() ClusterOptions {
	return ClusterOptions{Efficiency: 0.7, MinSide: 4, MaxSide: 0}
}

func (o ClusterOptions) validate() error {
	if o.Efficiency <= 0 || o.Efficiency > 1 {
		return fmt.Errorf("amr: cluster efficiency %g out of (0,1]", o.Efficiency)
	}
	if o.MinSide < 1 {
		return fmt.Errorf("amr: cluster MinSide %d < 1", o.MinSide)
	}
	if o.MaxSide > 0 && o.MaxSide < o.MinSide {
		return fmt.Errorf("amr: cluster MaxSide %d < MinSide %d", o.MaxSide, o.MinSide)
	}
	return nil
}

// Cluster runs Berger–Rigoutsos over the flagged cells of f restricted to
// region, returning disjoint boxes (tagged with the flag field's level) that
// cover every flagged cell with per-box flagged fraction >= Efficiency where
// the size constraints allow. It returns nil when nothing is flagged.
func Cluster(f *FlagField, region geom.Box, opts ClusterOptions) (geom.BoxList, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	bounds, any := f.FlaggedBounds(region)
	if !any {
		return nil, nil
	}
	var out geom.BoxList
	var recurse func(b geom.Box)
	recurse = func(b geom.Box) {
		// Shrink to the flagged bounding box first: free efficiency.
		fb, any := f.FlaggedBounds(b)
		if !any {
			return
		}
		b = fb
		nFlag := f.countIn(b)
		eff := float64(nFlag) / float64(b.Cells())
		tooLong := opts.MaxSide > 0 && b.Size(b.LongestAxis()) > opts.MaxSide
		done := eff >= opts.Efficiency && !tooLong
		if done {
			out = append(out, b)
			return
		}
		lo, hi, ok := cutBox(f, b, opts.MinSide)
		if !ok {
			out = append(out, b) // too small to cut; accept despite efficiency
			return
		}
		recurse(lo)
		recurse(hi)
	}
	recurse(bounds)
	return out, nil
}

// cutBox picks the Berger–Rigoutsos cut for box b: first a hole (zero) in
// some axis signature, then the strongest inflection of the signature's
// discrete Laplacian, else the midpoint of the longest axis. Cuts that leave
// either side shorter than minSide are disallowed; ok=false means no legal
// cut exists on any axis.
func cutBox(f *FlagField, b geom.Box, minSide int) (lo, hi geom.Box, ok bool) {
	type cut struct {
		axis, at int
		score    int
	}
	var holeCut, laplCut *cut
	for d := 0; d < b.Rank; d++ {
		n := b.Size(d)
		if n < 2*minSide {
			continue
		}
		sig := f.signature(b, d)
		// Hole: a zero-signature plane. Prefer the hole closest to center.
		bestHole := -1
		bestDist := n
		for i := minSide; i <= n-minSide; i++ {
			// A cut at index i separates planes [0,i) from [i,n). Cutting at
			// a hole means plane i-1 or i is empty; scan zero planes.
			if i < n && sig[i] == 0 {
				dist := abs(i - n/2)
				if dist < bestDist {
					bestHole, bestDist = i, dist
				}
			}
		}
		if bestHole >= 0 {
			c := cut{axis: d, at: b.Lo[d] + bestHole, score: n - bestDist}
			if holeCut == nil || c.score > holeCut.score {
				holeCut = &c
			}
			continue
		}
		// Inflection: largest |ΔLap| where Lap[i] = sig[i-1]-2sig[i]+sig[i+1].
		bestScore, bestAt := -1, -1
		for i := 1; i+2 < n; i++ {
			lap1 := sig[i-1] - 2*sig[i] + sig[i+1]
			lap2 := sig[i] - 2*sig[i+1] + sig[i+2]
			if (lap1 < 0) == (lap2 < 0) && lap1 != 0 && lap2 != 0 {
				continue // want a sign change (edge of a feature)
			}
			score := abs(lap1 - lap2)
			at := i + 1
			if at < minSide || at > n-minSide {
				continue
			}
			if score > bestScore || (score == bestScore && abs(at-n/2) < abs(bestAt-n/2)) {
				bestScore, bestAt = score, at
			}
		}
		if bestAt >= 0 && bestScore > 0 {
			c := cut{axis: d, at: b.Lo[d] + bestAt, score: bestScore}
			if laplCut == nil || c.score > laplCut.score {
				laplCut = &c
			}
		}
	}
	chosen := holeCut
	if chosen == nil {
		chosen = laplCut
	}
	if chosen == nil {
		// Fall back to the midpoint of the longest legally cuttable axis.
		axis, bestLen := -1, 0
		for d := 0; d < b.Rank; d++ {
			if n := b.Size(d); n >= 2*minSide && n > bestLen {
				axis, bestLen = d, n
			}
		}
		if axis < 0 {
			return b, geom.Box{}, false
		}
		chosen = &cut{axis: axis, at: b.Lo[axis] + b.Size(axis)/2}
	}
	lo, hi = b.Split(chosen.axis, chosen.at)
	return lo, hi, true
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
