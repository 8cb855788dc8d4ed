package partition

import (
	"fmt"
	"sort"

	"samrpart/internal/capacity"
	"samrpart/internal/geom"
	"samrpart/internal/sfc"
)

// Hierarchical is a two-level partitioner in the style of the hierarchical
// partitioning techniques of the SAMR literature (a sibling line of work to
// the paper): the cluster is divided into groups of GroupSize nodes, the
// SFC-ordered box list is first split across groups in proportion to each
// group's aggregate capacity (preserving coarse locality: a group owns a
// contiguous curve segment), and each group's segment is then distributed
// among its members ACEHeterogeneous-style. On large clusters this bounds
// the work of any single partitioning decision and maps naturally onto
// multi-switch topologies.
type Hierarchical struct {
	constraints Constraints
	curve       sfc.Curve
	refineRatio int
	// GroupSize is the number of nodes per group (the last group may be
	// smaller). Must be >= 1.
	GroupSize int
}

// NewHierarchical returns a hierarchical partitioner with 4-node groups.
func NewHierarchical(refineRatio int) *Hierarchical {
	return &Hierarchical{
		constraints: defaultConstraints(),
		curve:       sfc.Hilbert{},
		refineRatio: refineRatio,
		GroupSize:   4,
	}
}

// Name implements Partitioner.
func (h *Hierarchical) Name() string { return "Hierarchical" }

// Partition implements Partitioner by composing both stages: stage 1 cuts
// the curve into group segments (planGroups), stage 2 slices each segment
// among its group's members (partitionGroup), and the segments are appended
// in ascending group order, per-node work accumulating in that same order.
func (h *Hierarchical) Partition(boxes geom.BoxList, caps []float64, work WorkFunc) (*Assignment, error) {
	p, err := h.planGroups(boxes, caps, work)
	if err != nil {
		return nil, err
	}
	out := &Assignment{
		Work:  make([]float64, len(caps)),
		Ideal: capacity.Shares(caps, p.total),
	}
	for g := range p.members {
		gb, owners := p.partitionGroup(g)
		for i, b := range gb {
			out.Boxes = append(out.Boxes, b)
			out.Owners = append(out.Owners, owners[i])
			out.Work[owners[i]] += work(b)
		}
	}
	return out, nil
}

// groupPlan is the stage-1 product of the hierarchical scheme: node groups
// with their aggregate capacities, and the SFC-ordered box list cut into one
// contiguous curve segment per group in proportion to group capacity. Each
// group's stage-2 slicing reads only this state.
type groupPlan struct {
	// members[g] lists the global node ids of group g.
	members [][]int
	// groupCaps[g] is group g's aggregate relative capacity.
	groupCaps []float64

	caps   []float64
	work   WorkFunc
	cons   Constraints
	total  float64     // Σ work over the input boxes, in input order
	stage1 *Assignment // Owners[i] indexes members, not nodes
}

// planGroups runs stage 1: group the nodes, SFC-order the boxes, and cut the
// curve into per-group segments proportional to aggregate group capacity.
func (h *Hierarchical) planGroups(boxes geom.BoxList, caps []float64, work WorkFunc) (*groupPlan, error) {
	if err := checkInputs(boxes, caps); err != nil {
		return nil, err
	}
	if err := h.constraints.validate(); err != nil {
		return nil, err
	}
	if h.GroupSize < 1 {
		return nil, fmt.Errorf("partition: group size %d < 1", h.GroupSize)
	}
	p := &groupPlan{caps: caps, work: work, cons: h.constraints}
	for start := 0; start < len(caps); start += h.GroupSize {
		end := min(start+h.GroupSize, len(caps))
		members := make([]int, 0, end-start)
		gcap := 0.0
		for k := start; k < end; k++ {
			members = append(members, k)
			gcap += caps[k]
		}
		p.members = append(p.members, members)
		p.groupCaps = append(p.groupCaps, gcap)
	}
	groups := len(p.members)
	for _, b := range boxes {
		p.total += work(b)
	}
	if len(boxes) == 0 {
		p.stage1 = &Assignment{Work: make([]float64, groups), Ideal: make([]float64, groups)}
		return p, nil
	}
	ordered := boxes.Clone()
	domain, err := baseFootprint(ordered, h.refineRatio)
	if err != nil {
		return nil, err
	}
	mapper := sfc.NewMapper(h.curve, domain, h.refineRatio)
	mapper.Sort(ordered)
	groupQuotas := make([]float64, groups)
	groupOrder := make([]int, groups)
	for g, gcap := range p.groupCaps {
		groupQuotas[g] = gcap * p.total
		groupOrder[g] = g
	}
	p.stage1 = fillQuotas(ordered, groupOrder, groupQuotas, work, h.constraints)
	return p, nil
}

// partitionGroup runs stage 2 for one group: distribute the group's curve
// segment among its members in ascending-capacity order with member-level
// quotas. The returned owners are global node ids. Each group's slicing
// reads only stage-1 state, so calls are independent across groups.
func (p *groupPlan) partitionGroup(g int) (geom.BoxList, []int) {
	members := p.members[g]
	segment := p.stage1.NodeBoxes(g)
	if len(segment) == 0 {
		return nil, nil
	}
	segTotal := 0.0
	for _, b := range segment {
		segTotal += p.work(b)
	}
	memberCaps := make([]float64, len(members))
	for i, k := range members {
		if p.groupCaps[g] > 0 {
			memberCaps[i] = p.caps[k] / p.groupCaps[g]
		} else {
			memberCaps[i] = 1 / float64(len(members))
		}
	}
	quotas := capacity.Shares(memberCaps, segTotal)
	segment.SortBy(func(b geom.Box) int64 { return int64(p.work(b)) })
	order := make([]int, len(members))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return memberCaps[order[a]] < memberCaps[order[b]]
	})
	sub := fillQuotas(segment, order, quotas, p.work, p.cons)
	owners := make([]int, len(sub.Owners))
	for i, o := range sub.Owners {
		owners[i] = members[o]
	}
	return sub.Boxes, owners
}
