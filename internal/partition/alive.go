package partition

import (
	"fmt"

	"samrpart/internal/geom"
)

// compactAlive masks out dead nodes' capacities and renormalizes the
// survivors to sum to 1, returning the compact capacity vector and the
// compact-index → global-node-id mapping. When every node is alive the
// original caps are returned unchanged (no renormalization — the caller's
// vector is already well-formed) with a nil mapping, so callers can detect
// the identity case without comparing slices.
func compactAlive(caps []float64, alive []bool) (compact []float64, global []int, err error) {
	if len(alive) != len(caps) {
		return nil, nil, fmt.Errorf("partition: alive mask has %d entries for %d nodes", len(alive), len(caps))
	}
	nAlive := 0
	for _, a := range alive {
		if a {
			nAlive++
		}
	}
	if nAlive == len(caps) {
		return caps, nil, nil
	}
	if nAlive == 0 {
		return nil, nil, fmt.Errorf("partition: no nodes alive")
	}
	compact = make([]float64, 0, nAlive)
	global = make([]int, 0, nAlive)
	total := 0.0
	for k, a := range alive {
		if !a {
			continue
		}
		compact = append(compact, caps[k])
		global = append(global, k)
		total += caps[k]
	}
	if total <= 0 {
		return nil, nil, fmt.Errorf("partition: surviving nodes have zero capacity")
	}
	for i := range compact {
		compact[i] /= total
	}
	return compact, global, nil
}

// expandAlive maps a compact-cluster assignment back to global node ids:
// owners are relabeled through global[] and the per-node Work/Ideal vectors
// are re-expanded to n entries with zeros at dead positions. The inverse of
// compactAlive's index space change; Boxes are aliased, not copied.
func expandAlive(asn *Assignment, global []int, n int) *Assignment {
	owners := make([]int, len(asn.Owners))
	for i, o := range asn.Owners {
		owners[i] = global[o]
	}
	workOut := make([]float64, n)
	ideal := make([]float64, n)
	for i, g := range global {
		workOut[g] = asn.Work[i]
		ideal[g] = asn.Ideal[i]
	}
	return &Assignment{Boxes: asn.Boxes, Owners: owners, Work: workOut, Ideal: ideal}
}

// PartitionAlive partitions boxes over the surviving subset of a cluster:
// alive[k] marks node k as usable, dead nodes receive no boxes and zero
// work. Capacities of dead nodes are masked out and the remainder is
// renormalized to sum to 1, so the underlying partitioner sees a smaller,
// well-formed cluster; owners in the result are then mapped back to global
// node ids and Work/Ideal are re-expanded with zeros at dead positions. With
// every node alive the call is exactly p.Partition.
//
// This is the decision step of every SPMD repartition, recovery and
// admission: the box list is global state every live rank holds, so each
// rank computes the new assignment locally and deterministically — no
// coordinator required.
func PartitionAlive(p Partitioner, boxes geom.BoxList, caps []float64, alive []bool, work WorkFunc) (*Assignment, error) {
	compact, global, err := compactAlive(caps, alive)
	if err != nil {
		return nil, err
	}
	if global == nil {
		return p.Partition(boxes, caps, work)
	}
	asn, err := p.Partition(boxes, compact, work)
	if err != nil {
		return nil, err
	}
	return expandAlive(asn, global, len(caps)), nil
}
