package engine

import (
	"samrpart/internal/geom"
	"samrpart/internal/partition"
)

// This file retains the coordinator-style plan construction the distributed
// per-rank builders replaced: one global pass over the whole assignment
// derives every rank's ghost and migration plan at once, exactly what each
// rank used to compute for itself by scanning the full owner table. It
// survives for two jobs — as the differential oracle the tests hold the
// distributed builders to (plans must match bit-for-bit, per rank), and as
// the baseline the weak-scaling study (RepartitionPlanCost) and
// BenchmarkRepartitionPlan measure the distributed builders against. No live
// run is routed through it.

// centralGhostPlans builds the ghost-exchange plan of every rank in one
// global pass: each box is probed against the uniform-grid index, and the
// resulting sends, receives, and local copies are appended to the owning
// rank's plan. Per-plan canonical order comes from the shared finish step,
// so a rank's plan here is bit-identical to buildGhostPlan's.
func centralGhostPlans(a *partition.Assignment, size, ghost int, prefix string) []*ghostPlan {
	plans := make([]*ghostPlan, size)
	for r := range plans {
		plans[r] = &ghostPlan{}
	}
	needsRemote := make([]bool, len(a.Boxes))
	idx := geom.NewIndex(a.Boxes)
	var hits []int
	for i, bi := range a.Boxes {
		oi := a.Owners[i]
		pl := plans[oi]
		grown := bi.Grow(ghost)
		hits = idx.Query(grown, hits)
		for _, j := range hits {
			if j == i {
				continue
			}
			bj := a.Boxes[j]
			oj := a.Owners[j]
			if oj == oi {
				pl.locals = append(pl.locals, localCopy{dst: int32(i), src: int32(j), region: grown.Intersect(bj)})
				continue
			}
			pl.recvs = append(pl.recvs, planRegion{dstIdx: i, srcIdx: j, region: grown.Intersect(bj), peer: oj})
			needsRemote[i] = true
			pl.sends = append(pl.sends, planRegion{dstIdx: j, srcIdx: i, region: bj.Grow(ghost).Intersect(bi), peer: oj})
		}
	}
	for _, pl := range plans {
		pl.finish(prefix)
	}
	for i, o := range a.Owners {
		if needsRemote[i] {
			plans[o].boundary = append(plans[o].boundary, i)
		} else {
			plans[o].interior = append(plans[o].interior, i)
		}
	}
	return plans
}

// centralMigPlans builds the migration plan of every rank for an old→next
// repartition in one global pass: each new box is probed against the index
// over the old tiling, and every overlapping (old, new) region is filed as
// retained (owner unchanged), a send on the old owner, and a receive on the
// new owner. Per-plan canonical order comes from the shared finish step, so
// a rank's plan here is bit-identical to buildMigPlan's.
func centralMigPlans(old, next *partition.Assignment, size int) []migPlan {
	plans := make([]migPlan, size)
	idx := geom.NewIndex(old.Boxes)
	var hits []int
	for i, nb := range next.Boxes {
		no := next.Owners[i]
		hits = idx.Query(nb, hits)
		for _, j := range hits {
			oo := old.Owners[j]
			m := planRegion{dstIdx: i, srcIdx: j, region: nb.Intersect(old.Boxes[j])}
			if oo == no {
				m.peer = no
				plans[no].retained = append(plans[no].retained, m)
				continue
			}
			m.peer = no
			plans[oo].sends = append(plans[oo].sends, m)
			m.peer = oo
			plans[no].recvs = append(plans[no].recvs, m)
		}
	}
	for r := range plans {
		plans[r].finish()
	}
	return plans
}
