package partition

import (
	"sort"

	"samrpart/internal/capacity"
	"samrpart/internal/geom"
)

// Hetero is ACEHeterogeneous, the system-sensitive partitioner (§5.3):
//
//  1. Obtain relative capacities C_k from the capacity calculator.
//  2. Compute the total work L of the bounding-box list and per-node
//     targets L_k = C_k·L.
//  3. Sort both the box list (by work) and the capacities ascending, so the
//     smallest box goes to the smallest-capacity node and unnecessary box
//     breaking is avoided.
//  4. Fill each node to ≈L_k, breaking a too-large box in two along its
//     longest axis (aspect-ratio rule) such that one part fits, subject to
//     the minimum-box-size constraint.
type Hetero struct {
	Constraints Constraints
}

// NewHetero returns an ACEHeterogeneous partitioner with the paper's
// default constraints.
func NewHetero() *Hetero {
	return &Hetero{Constraints: defaultConstraints()}
}

// Name implements Partitioner.
func (h *Hetero) Name() string { return "ACEHeterogeneous" }

// Partition implements Partitioner.
func (h *Hetero) Partition(boxes geom.BoxList, caps []float64, work WorkFunc) (*Assignment, error) {
	if err := checkInputs(boxes, caps); err != nil {
		return nil, err
	}
	if err := h.Constraints.validate(); err != nil {
		return nil, err
	}
	total := 0.0
	for _, b := range boxes {
		total += work(b)
	}
	quotas := capacity.Shares(caps, total)

	// Sort boxes ascending by work (deterministic tie-break inside SortBy).
	ordered := boxes.Clone()
	ordered.SortBy(func(b geom.Box) int64 { return int64(work(b)) })

	// Sort node ids ascending by capacity, stable on index.
	nodeOrder := make([]int, len(caps))
	for i := range nodeOrder {
		nodeOrder[i] = i
	}
	sort.SliceStable(nodeOrder, func(i, j int) bool {
		return caps[nodeOrder[i]] < caps[nodeOrder[j]]
	})

	return fillQuotas(ordered, nodeOrder, quotas, work, h.Constraints), nil
}
