package partition

import (
	"samrpart/internal/capacity"
	"samrpart/internal/geom"
	"samrpart/internal/sfc"
)

// LevelWise distributes each refinement level independently: every level's
// box list is SFC-ordered and split into capacity-proportional segments.
// This is the "independent grid distribution" alternative characterized in
// Parashar & Browne's partitioning study (the paper's reference [2]): it
// balances every level individually — so each level's synchronization point
// waits for no straggler — at the cost of inter-level locality, since a
// fine box and the coarse box under it generally land on different nodes,
// making prolongation/restriction remote.
type LevelWise struct {
	constraints Constraints
	curve       sfc.Curve
	refineRatio int
}

// NewLevelWise returns the per-level partitioner.
func NewLevelWise(refineRatio int) *LevelWise {
	return &LevelWise{
		constraints: defaultConstraints(),
		curve:       sfc.Hilbert{},
		refineRatio: refineRatio,
	}
}

// Name implements Partitioner.
func (l *LevelWise) Name() string { return "LevelWise" }

// Partition implements Partitioner.
func (l *LevelWise) Partition(boxes geom.BoxList, caps []float64, work WorkFunc) (*Assignment, error) {
	if err := checkInputs(boxes, caps); err != nil {
		return nil, err
	}
	if err := l.constraints.validate(); err != nil {
		return nil, err
	}
	total := 0.0
	maxLevel := 0
	for _, b := range boxes {
		total += work(b)
		if b.Level > maxLevel {
			maxLevel = b.Level
		}
	}
	out := &Assignment{
		Work:  make([]float64, len(caps)),
		Ideal: capacity.Shares(caps, total),
	}
	nodeOrder := make([]int, len(caps))
	for i := range nodeOrder {
		nodeOrder[i] = i
	}
	for lev := 0; lev <= maxLevel; lev++ {
		lvlBoxes := boxes.Filter(func(b geom.Box) bool { return b.Level == lev })
		if len(lvlBoxes) == 0 {
			continue
		}
		lvlTotal := 0.0
		for _, b := range lvlBoxes {
			lvlTotal += work(b)
		}
		domain, err := baseFootprint(lvlBoxes, l.refineRatio)
		if err != nil {
			return nil, err
		}
		mapper := sfc.NewMapper(l.curve, domain, l.refineRatio)
		ordered := lvlBoxes.Clone()
		mapper.Sort(ordered)
		quotas := capacity.Shares(caps, lvlTotal)
		sub := fillQuotas(ordered, nodeOrder, quotas, work, l.constraints)
		out.Boxes = append(out.Boxes, sub.Boxes...)
		out.Owners = append(out.Owners, sub.Owners...)
		for k := range out.Work {
			out.Work[k] += sub.Work[k]
		}
	}
	return out, nil
}
