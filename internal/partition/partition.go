// Package partition implements the paper's contribution: distribution of a
// SAMR bounding-box list over cluster nodes in proportion to their relative
// capacities.
//
// Two production partitioners are provided:
//
//   - ACEHeterogeneous — the system-sensitive partitioner (paper §5.3):
//     boxes and capacities are sorted ascending, each node k is filled to
//     its capacity share L_k = C_k·L, and oversized boxes are broken along
//     their longest axis subject to minimum-box-size and aspect-ratio
//     constraints.
//   - ACEComposite — the GrACE default (the paper's baseline): boxes are
//     ordered along a space-filling curve and every node receives an equal
//     share L/K, regardless of capacity.
//
// Greedy (LPT) and round-robin baselines round out comparisons and
// ablations.
package partition

import (
	"fmt"
	"math"

	"samrpart/internal/capacity"
	"samrpart/internal/geom"
)

// WorkFunc maps a box to its computational load.
type WorkFunc func(geom.Box) float64

// CellWork weighs a box by its cell count only.
func CellWork(b geom.Box) float64 { return float64(b.Cells()) }

// SubcycledWork weighs a box by cells × ratio^level, accounting for the
// smaller time steps of refined levels (the paper's space-time load).
func SubcycledWork(refineRatio int) WorkFunc {
	return func(b geom.Box) float64 {
		w := float64(b.Cells())
		for l := 0; l < b.Level; l++ {
			w *= float64(refineRatio)
		}
		return w
	}
}

// Constraints are the box-splitting rules of §5.3.
type Constraints struct {
	// MinBoxSize is the minimum extent of any box side after a split. The
	// paper notes this constraint is what keeps residual imbalance (<40%
	// in their experiments).
	MinBoxSize int
	// SplitAllAxes, when true, allows a split along any axis (choosing the
	// one that best fits the remaining quota) instead of only the longest
	// axis — the finer-granularity extension §8 proposes. The longest-axis
	// default is what maintains aspect ratio.
	SplitAllAxes bool
	// maxSplitsPerBox caps recursion when one box spans several nodes'
	// quotas (0 = unlimited).
	maxSplitsPerBox int
}

// defaultConstraints matches the paper's configuration.
func defaultConstraints() Constraints {
	return Constraints{MinBoxSize: 4}
}

// validate checks the constraints.
func (c Constraints) validate() error {
	if c.MinBoxSize < 1 {
		return fmt.Errorf("partition: MinBoxSize %d < 1", c.MinBoxSize)
	}
	if c.maxSplitsPerBox < 0 {
		return fmt.Errorf("partition: negative MaxSplitsPerBox")
	}
	return nil
}

// Assignment is the result of partitioning: the (possibly split) output box
// list with one owner per box, plus per-node assigned and ideal work.
type Assignment struct {
	// Boxes is the output box list; splits replace original boxes.
	Boxes geom.BoxList
	// Owners[i] is the node owning Boxes[i].
	Owners []int
	// Work[k] is the load assigned to node k (W_k).
	Work []float64
	// Ideal[k] is the capacity share of node k (L_k = C_k·L).
	Ideal []float64
}

// numNodes returns the cluster size the assignment targets.
func (a *Assignment) numNodes() int { return len(a.Work) }

// NodeBoxes returns the boxes assigned to node k.
func (a *Assignment) NodeBoxes(k int) geom.BoxList {
	var out geom.BoxList
	for i, o := range a.Owners {
		if o == k {
			out = append(out, a.Boxes[i])
		}
	}
	return out
}

// TotalWork returns Σ W_k.
func (a *Assignment) TotalWork() float64 {
	sum := 0.0
	for _, w := range a.Work {
		sum += w
	}
	return sum
}

// MaxImbalance returns max_k of the paper's per-node metric
// I_k = |W_k−L_k|/L_k·100.
func (a *Assignment) MaxImbalance() float64 {
	return capacity.MaxImbalance(a.Work, a.Ideal)
}

// Validate checks assignment invariants against the input list: every
// output box owned by a valid node, output boxes disjoint, the input cell
// count preserved per level, and Work consistent with the box list.
func (a *Assignment) Validate(input geom.BoxList, work WorkFunc) error {
	if len(a.Boxes) != len(a.Owners) {
		return fmt.Errorf("partition: %d boxes but %d owners", len(a.Boxes), len(a.Owners))
	}
	perLevelIn := map[int]int64{}
	for _, b := range input {
		perLevelIn[b.Level] += b.Cells()
	}
	perLevelOut := map[int]int64{}
	sums := make([]float64, len(a.Work))
	for i, b := range a.Boxes {
		if b.Empty() {
			return fmt.Errorf("partition: empty output box %d", i)
		}
		o := a.Owners[i]
		if o < 0 || o >= len(a.Work) {
			return fmt.Errorf("partition: box %d has invalid owner %d", i, o)
		}
		perLevelOut[b.Level] += b.Cells()
		sums[o] += work(b)
	}
	for l, n := range perLevelIn {
		if perLevelOut[l] != n {
			return fmt.Errorf("partition: level %d cells changed: %d -> %d", l, n, perLevelOut[l])
		}
	}
	for l := range perLevelOut {
		if _, ok := perLevelIn[l]; !ok {
			return fmt.Errorf("partition: output invented level %d", l)
		}
	}
	if !a.Boxes.Disjoint() {
		return fmt.Errorf("partition: output boxes overlap")
	}
	for k := range sums {
		if math.Abs(sums[k]-a.Work[k]) > 1e-6*(1+math.Abs(sums[k])) {
			return fmt.Errorf("partition: node %d Work=%g but boxes sum to %g", k, a.Work[k], sums[k])
		}
	}
	return nil
}

// Partitioner distributes a bounding-box list over nodes with the given
// relative capacities (which must sum to ~1).
type Partitioner interface {
	// Name identifies the scheme ("ACEHeterogeneous", "ACEComposite", ...).
	Name() string
	// Partition assigns the boxes. caps are the relative capacities C_k;
	// work weighs each box.
	Partition(boxes geom.BoxList, caps []float64, work WorkFunc) (*Assignment, error)
}

// checkInputs validates the common partitioner preconditions.
func checkInputs(boxes geom.BoxList, caps []float64) error {
	if len(caps) == 0 {
		return fmt.Errorf("partition: no nodes")
	}
	sum := 0.0
	for k, c := range caps {
		// NaN compares false to everything, so the sum check below would
		// silently wave a NaN vector through; reject non-finite explicitly.
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("partition: non-finite capacity C_%d = %g", k, c)
		}
		if c < 0 {
			return fmt.Errorf("partition: negative capacity C_%d = %g", k, c)
		}
		sum += c
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("partition: capacities sum to %g, want 1", sum)
	}
	for i, b := range boxes {
		if b.Empty() {
			return fmt.Errorf("partition: input box %d is empty", i)
		}
	}
	return nil
}

// UniformCaps returns the homogeneous capacity vector (1/K each).
func UniformCaps(k int) []float64 {
	caps := make([]float64, k)
	for i := range caps {
		caps[i] = 1 / float64(k)
	}
	return caps
}
