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
//
// The two stages are exposed separately (PlanGroups, then
// GroupPlan.PartitionGroup per group) so callers that scale past a single
// coordinator can treat stage 1 as the short global decision and slice the
// groups independently; Partition composes both stages for the common case.
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

// GroupPlan is the stage-1 product of the hierarchical scheme: node groups
// with their aggregate capacities, and the SFC-ordered box list cut into one
// contiguous curve segment per group in proportion to group capacity. The
// global decision it represents is deliberately small — a sort plus a
// quota walk — while the per-group slicing it feeds is independent per
// group, so stage 2 can run anywhere (or in parallel) without coordination.
type GroupPlan struct {
	// Members[g] lists the global node ids of group g.
	Members [][]int
	// groupCaps[g] is group g's aggregate relative capacity.
	groupCaps []float64

	caps   []float64
	work   WorkFunc
	cons   Constraints
	total  float64     // Σ work over the input boxes, in input order
	stage1 *Assignment // Owners[i] indexes Members, not nodes
}

// NumGroups returns the number of capacity groups.
func (p *GroupPlan) NumGroups() int { return len(p.Members) }

// groupBoxes returns group g's contiguous curve segment.
func (p *GroupPlan) groupBoxes(g int) geom.BoxList { return p.stage1.NodeBoxes(g) }

// PlanGroups runs stage 1: group the nodes, SFC-order the boxes, and cut the
// curve into per-group segments proportional to aggregate group capacity.
func (h *Hierarchical) PlanGroups(boxes geom.BoxList, caps []float64, work WorkFunc) (*GroupPlan, error) {
	if err := checkInputs(boxes, caps); err != nil {
		return nil, err
	}
	if err := h.constraints.validate(); err != nil {
		return nil, err
	}
	if h.GroupSize < 1 {
		return nil, fmt.Errorf("partition: group size %d < 1", h.GroupSize)
	}
	p := &GroupPlan{caps: caps, work: work, cons: h.constraints}
	for start := 0; start < len(caps); start += h.GroupSize {
		end := start + h.GroupSize
		if end > len(caps) {
			end = len(caps)
		}
		members := make([]int, 0, end-start)
		gcap := 0.0
		for k := start; k < end; k++ {
			members = append(members, k)
			gcap += caps[k]
		}
		p.Members = append(p.Members, members)
		p.groupCaps = append(p.groupCaps, gcap)
	}
	total := 0.0
	for _, b := range boxes {
		total += work(b)
	}
	p.total = total
	if len(boxes) == 0 {
		p.stage1 = &Assignment{Work: make([]float64, p.NumGroups()), Ideal: make([]float64, p.NumGroups())}
		return p, nil
	}
	ordered := boxes.Clone()
	domain, err := baseFootprint(ordered, h.refineRatio)
	if err != nil {
		return nil, err
	}
	mapper := sfc.NewMapper(h.curve, domain, h.refineRatio)
	mapper.Sort(ordered)
	groupQuotas := make([]float64, p.NumGroups())
	groupOrder := make([]int, p.NumGroups())
	for g, gcap := range p.groupCaps {
		groupQuotas[g] = gcap * total
		groupOrder[g] = g
	}
	p.stage1 = fillQuotas(ordered, groupOrder, groupQuotas, work, h.constraints)
	return p, nil
}

// PartitionGroup runs stage 2 for one group: distribute the group's curve
// segment among its members in ascending-capacity order with member-level
// quotas. The returned owners are global node ids. Each group's slicing
// reads only stage-1 state, so calls are independent across groups.
func (p *GroupPlan) PartitionGroup(g int) (geom.BoxList, []int) {
	members := p.Members[g]
	segment := p.groupBoxes(g)
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

// GroupOf returns the index of the group containing global node id k, or -1
// when k is out of range. Groups are contiguous equal-size chunks of the node
// index space (the last possibly smaller), so the lookup is a division.
func (p *GroupPlan) GroupOf(k int) int {
	if k < 0 || k >= len(p.caps) || len(p.Members) == 0 {
		return -1
	}
	return k / len(p.Members[0])
}

// GroupSegment is one group's stage-2 product — the sliced curve segment
// with global owner ids — in a wire-friendly form: this is what a group
// leader ships to the assembling rank when stage 2 runs group-locally.
// Segments must travel as produced: fillQuotas may split boxes, so the box
// list is part of the decision, not derivable from the stage-1 segment.
type GroupSegment struct {
	Boxes  geom.BoxList
	Owners []int
}

// Assemble composes per-group stage-2 segments into the full assignment,
// bit-identically to Partition: segments are appended in ascending group
// order and per-node work accumulates in that same order, so an assignment
// assembled from locally- and remotely-computed segments is indistinguishable
// from one computed in a single pass. segs[g] must be group g's
// PartitionGroup output (verbatim, order included).
func (p *GroupPlan) Assemble(segs []GroupSegment) (*Assignment, error) {
	if len(segs) != p.NumGroups() {
		return nil, fmt.Errorf("partition: assembling %d segments for %d groups", len(segs), p.NumGroups())
	}
	out := &Assignment{
		Work:  make([]float64, len(p.caps)),
		Ideal: capacity.Shares(p.caps, p.total),
	}
	for _, seg := range segs {
		for i, b := range seg.Boxes {
			o := seg.Owners[i]
			if o < 0 || o >= len(p.caps) {
				return nil, fmt.Errorf("partition: segment owner %d out of range", o)
			}
			out.Boxes = append(out.Boxes, b)
			out.Owners = append(out.Owners, o)
			out.Work[o] += p.work(b)
		}
	}
	return out, nil
}

// Partition implements Partitioner by composing both stages: every group is
// sliced locally and the segments are assembled in group order. This is the
// replicated form the SPMD runner retains as its differential oracle; the
// group-local form computes only one group's slice per rank and learns the
// rest over the wire, feeding the identical Assemble.
func (h *Hierarchical) Partition(boxes geom.BoxList, caps []float64, work WorkFunc) (*Assignment, error) {
	p, err := h.PlanGroups(boxes, caps, work)
	if err != nil {
		return nil, err
	}
	segs := make([]GroupSegment, p.NumGroups())
	for g := range segs {
		gb, owners := p.PartitionGroup(g)
		segs[g] = GroupSegment{Boxes: gb, Owners: owners}
	}
	return p.Assemble(segs)
}
