package partition

import (
	"math"
	"testing"

	"samrpart/internal/geom"
)

// FuzzPlanGroups drives the hierarchical stage-1 planner with fuzzer-shaped
// box lists, capacities and group sizes. Invariants: either the inputs are
// rejected with an error, or (a) every node lands in exactly one group, (b)
// the per-group work assigned by the stage-1 cut sums to the total input
// weight, and (c) slicing every group via PartitionGroup and assembling the
// segments is bit-identical to the composed Hierarchical.Partition — the
// property that lets stage 2 run group-locally on each SPMD rank.
func FuzzPlanGroups(f *testing.F) {
	f.Add(uint8(6), uint8(2), int8(0), uint8(8), 0.5, 0.3, 0.2, 0.1)
	f.Add(uint8(12), uint8(5), int8(-3), uint8(16), 0.25, 0.25, 0.25, 0.25)
	f.Add(uint8(1), uint8(1), int8(4), uint8(4), 1.0, 0.0, 0.0, 0.0)
	f.Add(uint8(20), uint8(3), int8(0), uint8(32), math.NaN(), 0.5, 0.25, 0.25)
	f.Fuzz(func(t *testing.T, nBoxes, groupSize uint8, origin int8, size uint8, c0, c1, c2, c3 float64) {
		n := int(nBoxes%24) + 1
		boxes := make(geom.BoxList, 0, n)
		for i := 0; i < n; i++ {
			d := int(size%32) + 1
			x0 := int(origin) + i*70
			boxes = append(boxes, geom.Box2(x0, 0, x0+d-1, d-1))
		}
		caps := []float64{c0, c1, c2, c3}
		total := 0.0
		for _, c := range caps {
			total += c
		}
		if total > 0 {
			for i := range caps {
				caps[i] /= total
			}
		}
		h := NewHierarchical(2)
		h.GroupSize = int(groupSize % 6) // 0 must be rejected
		plan, err := h.PlanGroups(boxes, caps, CellWork)
		if err != nil {
			if plan != nil {
				t.Fatal("error with non-nil plan")
			}
			return
		}
		// (a) Every node in exactly one group.
		seen := make([]int, len(caps))
		for _, members := range plan.Members {
			for _, k := range members {
				if k < 0 || k >= len(caps) {
					t.Fatalf("member %d out of range", k)
				}
				seen[k]++
			}
		}
		for k, c := range seen {
			if c != 1 {
				t.Fatalf("node %d appears in %d groups", k, c)
			}
			if g := plan.GroupOf(k); g < 0 || g >= plan.NumGroups() {
				t.Fatalf("GroupOf(%d) = %d out of range", k, g)
			} else {
				found := false
				for _, m := range plan.Members[g] {
					found = found || m == k
				}
				if !found {
					t.Fatalf("GroupOf(%d) = %d but node not a member", k, g)
				}
			}
		}
		// (b) Stage-1 quotas exhaust the total weight.
		want := 0.0
		for _, b := range boxes {
			want += CellWork(b)
		}
		got := 0.0
		for g := 0; g < plan.NumGroups(); g++ {
			for _, b := range plan.groupBoxes(g) {
				got += CellWork(b)
			}
		}
		if math.Abs(got-want) > 1e-6*math.Max(want, 1) {
			t.Fatalf("stage-1 segments carry %v work, input total %v", got, want)
		}
		// (c) Assembling per-group slices == composed Partition, bit for bit.
		whole, err := h.Partition(boxes, caps, CellWork)
		if err != nil {
			t.Fatalf("PlanGroups accepted inputs Partition rejects: %v", err)
		}
		segs := make([]GroupSegment, plan.NumGroups())
		for g := range segs {
			gb, owners := plan.PartitionGroup(g)
			segs[g] = GroupSegment{Boxes: gb, Owners: owners}
		}
		asm, err := plan.Assemble(segs)
		if err != nil {
			t.Fatal(err)
		}
		if !asm.Boxes.Equal(whole.Boxes) {
			t.Fatal("assembled boxes differ from composed Partition")
		}
		for i := range asm.Owners {
			if asm.Owners[i] != whole.Owners[i] {
				t.Fatalf("box %d: assembled owner %d, composed %d", i, asm.Owners[i], whole.Owners[i])
			}
		}
		for k := range asm.Work {
			if asm.Work[k] != whole.Work[k] || asm.Ideal[k] != whole.Ideal[k] {
				t.Fatalf("node %d: assembled work/ideal %v/%v, composed %v/%v",
					k, asm.Work[k], asm.Ideal[k], whole.Work[k], whole.Ideal[k])
			}
		}
	})
}

// FuzzPartitionHetero drives ACEHeterogeneous with fuzzer-shaped box lists
// and capacity vectors. Invariant: either the inputs are rejected with an
// error, or the assignment passes Validate, carries no NaN, and its ideal
// shares sum to the total work — never a panic, never a silently corrupt
// assignment.
func FuzzPartitionHetero(f *testing.F) {
	f.Add(uint8(2), int8(0), uint8(16), uint8(8), uint8(8), 0.5, 0.3, 0.2)
	f.Add(uint8(3), int8(-4), uint8(32), uint8(4), uint8(12), 1.0, 0.0, 0.0)
	f.Add(uint8(1), int8(7), uint8(5), uint8(5), uint8(5), 0.25, 0.25, 0.5)
	f.Add(uint8(4), int8(1), uint8(64), uint8(3), uint8(9), math.NaN(), 0.5, 0.5)
	f.Fuzz(func(t *testing.T, nBoxes uint8, origin int8, sx, sy, sz uint8, c0, c1, c2 float64) {
		n := int(nBoxes%5) + 1
		boxes := make(geom.BoxList, 0, n)
		for i := 0; i < n; i++ {
			// Stagger boxes along x so they are disjoint whatever the sizes;
			// sizes are clamped to [1, 64] to stay representable.
			dx, dy, dz := int(sx%64)+1, int(sy%64)+1, int(sz%64)+1
			x0 := int(origin) + i*130
			b := geom.Box3(x0, 0, 0, x0+dx-1, dy-1, dz-1).WithLevel(i % 3)
			boxes = append(boxes, b)
		}
		caps := []float64{c0, c1, c2}
		a, err := NewHetero().Partition(boxes, caps, CellWork)
		if err != nil {
			if a != nil {
				t.Fatal("error with non-nil assignment")
			}
			return
		}
		if err := a.Validate(boxes, CellWork); err != nil {
			t.Fatalf("accepted inputs produced invalid assignment: %v", err)
		}
		totalIdeal, totalWork := 0.0, 0.0
		for k := range a.Work {
			if math.IsNaN(a.Work[k]) || math.IsNaN(a.Ideal[k]) ||
				math.IsInf(a.Work[k], 0) || math.IsInf(a.Ideal[k], 0) {
				t.Fatalf("non-finite work/ideal at node %d: %v/%v", k, a.Work[k], a.Ideal[k])
			}
			totalIdeal += a.Ideal[k]
			totalWork += a.Work[k]
		}
		if totalWork > 0 && math.Abs(totalIdeal-totalWork)/totalWork > 1e-6 {
			t.Fatalf("ideal shares sum %v != assigned work %v", totalIdeal, totalWork)
		}
		for i, o := range a.Owners {
			if o < 0 || o >= len(caps) {
				t.Fatalf("box %d owned by out-of-range node %d", i, o)
			}
		}
	})
}
