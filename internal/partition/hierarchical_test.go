package partition

import (
	"testing"

	"samrpart/internal/capacity"
	"samrpart/internal/geom"
)

func TestHierarchicalMatchesCapacities(t *testing.T) {
	p := NewHierarchical(2)
	work := SubcycledWork(2)
	// 8 nodes, two groups of 4 with different aggregate capacities.
	caps := []float64{0.05, 0.05, 0.10, 0.10, 0.15, 0.15, 0.20, 0.20}
	boxes := rmBoxList()
	a, err := p.Partition(boxes, caps, work)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(boxes, work); err != nil {
		t.Fatal(err)
	}
	for k := range caps {
		if imb := capacity.Imbalance(a.Work[k], a.Ideal[k]); imb > 50 {
			t.Errorf("node %d imbalance %.1f%%", k, imb)
		}
	}
	// Group totals track group capacity: group 0 (30%) vs group 1 (70%).
	g0 := a.Work[0] + a.Work[1] + a.Work[2] + a.Work[3]
	g1 := a.Work[4] + a.Work[5] + a.Work[6] + a.Work[7]
	total := a.TotalWork()
	if g0/total > 0.40 || g1/total < 0.60 {
		t.Errorf("group shares %.2f / %.2f, want ~0.30 / 0.70", g0/total, g1/total)
	}
}

func TestHierarchicalSingleGroupEqualsWholeCluster(t *testing.T) {
	p := NewHierarchical(2)
	p.GroupSize = 16 // all nodes in one group
	work := SubcycledWork(2)
	a, err := p.Partition(rmBoxList(), paperCaps, work)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(rmBoxList(), work); err != nil {
		t.Fatal(err)
	}
	if a.MaxImbalance() > 40 {
		t.Errorf("single-group imbalance %.1f%%", a.MaxImbalance())
	}
}

func TestHierarchicalRaggedLastGroup(t *testing.T) {
	p := NewHierarchical(2)
	p.GroupSize = 3
	caps := UniformCaps(7) // groups of 3, 3, 1
	boxes := rmBoxList()
	a, err := p.Partition(boxes, caps, SubcycledWork(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(boxes, SubcycledWork(2)); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 7; k++ {
		if len(a.NodeBoxes(k)) == 0 && a.Work[k] != 0 {
			t.Errorf("node %d inconsistent", k)
		}
	}
}

func TestHierarchicalErrors(t *testing.T) {
	p := NewHierarchical(2)
	p.GroupSize = 0
	if _, err := p.Partition(geom.BoxList{geom.Box2(0, 0, 3, 3)}, UniformCaps(2), CellWork); err == nil {
		t.Error("zero group size accepted")
	}
	q := NewHierarchical(2)
	if _, err := q.Partition(geom.BoxList{geom.Box2(0, 0, 3, 3)}, []float64{2}, CellWork); err == nil {
		t.Error("bad capacities accepted")
	}
	if a, err := q.Partition(nil, UniformCaps(4), CellWork); err != nil || len(a.Boxes) != 0 {
		t.Error("empty list mishandled")
	}
}

// TestHierarchicalTwoStageComposition checks the exposed stages against the
// composed Partition: slicing every group of a GroupPlan independently must
// reproduce Partition's boxes and owners exactly (the property that lets
// stage 2 run decentralized).
func TestHierarchicalTwoStageComposition(t *testing.T) {
	p := NewHierarchical(2)
	p.GroupSize = 3
	work := SubcycledWork(2)
	caps := []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.10, 0.15}
	boxes := rmBoxList()
	whole, err := p.Partition(boxes, caps, work)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.PlanGroups(boxes, caps, work)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumGroups() != 3 {
		t.Fatalf("got %d groups, want 3", plan.NumGroups())
	}
	var gotBoxes geom.BoxList
	var gotOwners []int
	for g := 0; g < plan.NumGroups(); g++ {
		gb, owners := plan.PartitionGroup(g)
		gotBoxes = append(gotBoxes, gb...)
		gotOwners = append(gotOwners, owners...)
	}
	if !gotBoxes.Equal(whole.Boxes) {
		t.Fatal("stage-wise boxes differ from composed Partition")
	}
	for i, o := range gotOwners {
		if o != whole.Owners[i] {
			t.Fatalf("box %d owner %d, composed Partition gave %d", i, o, whole.Owners[i])
		}
	}
}

// TestHierarchicalGroupLargerThanCluster puts every node in one ragged
// group (GroupSize far above the node count) — the degenerate shape small
// clusters hit when group size is tuned for thousands of ranks.
func TestHierarchicalGroupLargerThanCluster(t *testing.T) {
	p := NewHierarchical(2)
	p.GroupSize = 4096
	caps := UniformCaps(5)
	boxes := rmBoxList()
	a, err := p.Partition(boxes, caps, SubcycledWork(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(boxes, SubcycledWork(2)); err != nil {
		t.Fatal(err)
	}
	plan, err := p.PlanGroups(boxes, caps, SubcycledWork(2))
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumGroups() != 1 || len(plan.Members[0]) != 5 {
		t.Fatalf("got %d groups / %v members, want one group of 5", plan.NumGroups(), plan.Members)
	}
}

// TestHierarchicalDeadRanks drives the hierarchical scheme through
// PartitionAlive: dead ranks must end up owning nothing while the survivors
// cover all work.
func TestHierarchicalDeadRanks(t *testing.T) {
	p := NewHierarchical(2)
	p.GroupSize = 2
	caps := UniformCaps(6)
	alive := []bool{true, false, true, true, false, true}
	boxes := rmBoxList()
	a, err := PartitionAlive(p, boxes, caps, alive, CellWork)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(boxes, CellWork); err != nil {
		t.Fatal(err)
	}
	for k, alv := range alive {
		owned := len(a.NodeBoxes(k))
		if !alv && owned != 0 {
			t.Errorf("dead rank %d owns %d boxes", k, owned)
		}
		if alv && owned == 0 {
			t.Errorf("alive rank %d owns nothing", k)
		}
	}
}

// TestHierarchicalSingleBoxGroups hands the scheme exactly one box per
// group: every group's segment degenerates to a single box that must land
// on one member, with no box lost or split below constraints.
func TestHierarchicalSingleBoxGroups(t *testing.T) {
	p := NewHierarchical(2)
	p.GroupSize = 2
	p.constraints = Constraints{MinBoxSize: 8} // tiles are 8 wide: unsplittable
	var boxes geom.BoxList
	for i := 0; i < 4; i++ {
		boxes = append(boxes, geom.Box2(i*8, 0, i*8+7, 7))
	}
	a, err := p.Partition(boxes, UniformCaps(8), CellWork)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(boxes, CellWork); err != nil {
		t.Fatal(err)
	}
	if len(a.Boxes) != 4 {
		t.Fatalf("got %d boxes, want the 4 unsplittable tiles", len(a.Boxes))
	}
	// One box per group: the four owner groups must all be distinct.
	groups := map[int]bool{}
	for _, o := range a.Owners {
		groups[o/2] = true
	}
	if len(groups) != 4 {
		t.Errorf("owners %v span %d groups, want all 4", a.Owners, len(groups))
	}
}

func TestHierarchicalGroupLocality(t *testing.T) {
	// A strip of tiles over 8 nodes in 2 groups: each group must own a
	// contiguous curve segment (at most 1 owner-group change along x).
	var boxes geom.BoxList
	for i := 0; i < 32; i++ {
		boxes = append(boxes, geom.Box2(i*8, 0, i*8+7, 7))
	}
	p := NewHierarchical(2)
	a, err := p.Partition(boxes, UniformCaps(8), CellWork)
	if err != nil {
		t.Fatal(err)
	}
	type ob struct{ x, group int }
	var obs []ob
	for i, b := range a.Boxes {
		obs = append(obs, ob{b.Lo[0], a.Owners[i] / 4})
	}
	for i := 0; i < len(obs); i++ {
		for j := i + 1; j < len(obs); j++ {
			if obs[j].x < obs[i].x {
				obs[i], obs[j] = obs[j], obs[i]
			}
		}
	}
	changes := 0
	for i := 1; i < len(obs); i++ {
		if obs[i].group != obs[i-1].group {
			changes++
		}
	}
	if changes > 1 {
		t.Errorf("groups not contiguous along the curve: %d changes", changes)
	}
}
