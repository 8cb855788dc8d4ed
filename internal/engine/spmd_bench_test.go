package engine

import (
	"fmt"
	"sync"
	"testing"

	"samrpart/internal/amr"
	"samrpart/internal/geom"
	"samrpart/internal/partition"
	"samrpart/internal/solver"
	"samrpart/internal/transport"
)

// benchTileAssignment builds an n-box single-level assignment: 8x8 tiles in
// a sqrt(n) x sqrt(n) grid, owners assigned in contiguous index blocks so
// every rank has both interior tiles and a seam with its neighbors.
func benchTileAssignment(n, ranks, splitAt int) *partition.Assignment {
	side := 1
	for side*side < n {
		side++
	}
	boxes := make(geom.BoxList, 0, n)
	for i := 0; i < n; i++ {
		x, y := (i%side)*8, (i/side)*8
		boxes = append(boxes, geom.Box2(x, y, x+7, y+7))
	}
	owners := make([]int, n)
	work := make([]float64, ranks)
	for i := range owners {
		o := 0
		if ranks == 2 {
			// Two-rank split at a movable seam, for redistribution benches.
			if i >= splitAt {
				o = 1
			}
		} else {
			o = i * ranks / n
		}
		owners[i] = o
		work[o] += 64
	}
	ideal := make([]float64, ranks)
	for k := range ideal {
		ideal[k] = float64(n) * 64 / float64(ranks)
	}
	return &partition.Assignment{Boxes: boxes, Owners: owners, Work: work, Ideal: ideal}
}

// BenchmarkBuildGhostPlan measures ghost-plan construction across box
// counts. The plan is rebuilt on every repartition, so its scaling with box
// count bounds how often adapting the partition can pay off.
func BenchmarkBuildGhostPlan(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("boxes=%d", n), func(b *testing.B) {
			a := benchTileAssignment(n, 4, 0)
			v := newAsnView(a, 0)
			var sc commScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pl := buildGhostPlan(v, 0, 1, "", &sc)
				if len(pl.interior)+len(pl.boundary) == 0 {
					b.Fatal("empty plan")
				}
			}
		})
	}
}

// BenchmarkRepartitionPlan sweeps repartition plan construction across box
// counts and virtual rank counts: /distributed builds one mid-cluster
// rank's own ghost and migration plans (indexes warm — the steady state),
// /central runs the retained coordinator-style build of every rank's plans,
// which is what each rank paid per repartition before plan construction was
// distributed. exp.TestWeakScalingOracleAndDelta holds their ratio to >= 5x,
// so the distributed path can never silently regress back to global scans.
func BenchmarkRepartitionPlan(b *testing.B) {
	for _, tc := range []struct{ boxes, ranks int }{
		{256, 16}, {1024, 64}, {4096, 64}, {4096, 1024}, {4096, 4096},
	} {
		old := benchTileAssignment(tc.boxes, tc.ranks, 0)
		next := benchTileAssignment(tc.boxes, tc.ranks, 0)
		for i := 0; i < len(next.Owners); i += 8 {
			next.Owners[i] = (next.Owners[i] + 1) % tc.ranks
		}
		// A mid-cluster rank whose boxes survive the shift (the every-8th
		// rotation can strip a rank that owns a single box).
		me := tc.ranks/2 + 1
		b.Run(fmt.Sprintf("boxes=%d/ranks=%d/distributed", tc.boxes, tc.ranks), func(b *testing.B) {
			ov, nv := newAsnView(old, me), newAsnView(next, me)
			var sc commScratch
			sc.indexes.get(old.Boxes)
			sc.indexes.get(next.Boxes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mp := buildMigPlan(ov, nv, me, &sc)
				pl := buildGhostPlan(nv, me, 1, "", &sc)
				if len(mp.retained) == 0 || len(pl.interior)+len(pl.boundary) == 0 {
					b.Fatal("empty plan")
				}
			}
		})
		b.Run(fmt.Sprintf("boxes=%d/ranks=%d/central", tc.boxes, tc.ranks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cm := centralMigPlans(old, next, tc.ranks)
				cg := centralGhostPlans(next, tc.ranks, 1, "")
				if len(cm) != tc.ranks || len(cg) != tc.ranks {
					b.Fatal("truncated central plans")
				}
			}
		})
	}
	// Stage-2 slicing of the hierarchical partitioner. Stage 1 (the group
	// plan) stays replicated on every rank in both modes, so it runs once
	// outside the timer; what decentralization removes from each rank is
	// the stage-2 work. /stage2-replicated slices every group's curve
	// segment and assembles the global assignment — the per-rank cost when
	// the whole decision is replicated. /stage2-grouplocal slices only the
	// rank's own group, the decentralized per-rank cost.
	// exp.TestWeakScalingStage2Oracle holds their ratio to >= 4x so stage 2
	// can never quietly fall back to all-groups work.
	{
		const boxes, ranks, groupSize = 4096, 256, 4
		a := benchTileAssignment(boxes, ranks, 0)
		caps := make([]float64, ranks)
		total := 0.0
		for k := range caps {
			caps[k] = 1 + 0.25*float64(k%4)
			total += caps[k]
		}
		for k := range caps {
			caps[k] /= total
		}
		h := partition.NewHierarchical(2)
		h.GroupSize = groupSize
		plan, err := h.PlanGroups(a.Boxes, caps, partition.CellWork)
		if err != nil {
			b.Fatalf("plan groups: %v", err)
		}
		name := fmt.Sprintf("boxes=%d/groups=%d", boxes, ranks/groupSize)
		b.Run(name+"/stage2-replicated", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				segs := make([]partition.GroupSegment, plan.NumGroups())
				for g := range segs {
					bx, ow := plan.PartitionGroup(g)
					segs[g] = partition.GroupSegment{Boxes: bx, Owners: ow}
				}
				asn, err := plan.Assemble(segs)
				if err != nil || len(asn.Owners) == 0 {
					b.Fatalf("assemble: %v", err)
				}
			}
		})
		b.Run(name+"/stage2-grouplocal", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bx, ow := plan.PartitionGroup(plan.GroupOf(ranks / 2))
				if len(bx) == 0 || len(ow) == 0 {
					b.Fatal("empty group segment")
				}
			}
		})
	}
}

// BenchmarkRedistribute measures patch redistribution between two ranks
// whose ownership seam moves back and forth by one tile row: most boxes are
// retained, one row's worth migrates per op — the steady-state shape of a
// well-behaved repartitioning loop.
func BenchmarkRedistribute(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("boxes=%d", n), func(b *testing.B) {
			side := 1
			for side*side < n {
				side++
			}
			k := solver.NewAdvection2D(1.0, 0.5, 0.3, 0.3, 0.1)
			a1 := benchTileAssignment(n, 2, n/2)
			a2 := benchTileAssignment(n, 2, n/2+side)
			views := [2][2]*asnView{}
			for r := 0; r < 2; r++ {
				views[0][r] = newAsnView(a1, r)
				views[1][r] = newAsnView(a2, r)
			}
			eps, err := transport.NewGroup(2)
			if err != nil {
				b.Fatal(err)
			}
			patches := make([][]*amr.Patch, 2)
			for r := 0; r < 2; r++ {
				patches[r] = make([]*amr.Patch, len(a1.Boxes))
				for i, bx := range a1.Boxes {
					if a1.Owners[i] == r {
						patches[r][i] = amr.NewPatch(bx, k.Ghost(), k.NumFields())
					}
				}
			}
			res := [2]SPMDResult{}
			scs := [2]commScratch{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				oi, ni := 0, 1
				if i%2 == 1 {
					oi, ni = 1, 0
				}
				var wg sync.WaitGroup
				errs := [2]error{}
				for r := 0; r < 2; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						patches[r], errs[r] = redistribute(eps[r], views[oi][r], views[ni][r], patches[r], k, i, &res[r], "", &scs[r])
					}(r)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
