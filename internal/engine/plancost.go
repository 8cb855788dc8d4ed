package engine

import (
	"fmt"
	"reflect"
	"slices"
	"time"

	"samrpart/internal/partition"
	"samrpart/internal/transport"
)

// PlanCostReport is one measurement of RepartitionPlanCost: the per-rank
// cost of the distributed plan builders against the retained centralized
// full build, plus the broadcast sizes of the two wire forms.
type PlanCostReport struct {
	// PerRankSec is the mean wall time one sampled rank spends building its
	// own ghost and migration plans (steady state: indexes warm, own-box
	// list maintained incrementally).
	PerRankSec float64
	// CentralSec is the wall time of one centralized build of every rank's
	// ghost and migration plans — what each rank effectively paid before
	// plan construction was distributed.
	CentralSec float64
	// OracleOK reports that every sampled rank's distributed plans were
	// bit-identical to the centralized oracle's.
	OracleOK bool
	// FullWireBytes and DeltaWireBytes are the encoded broadcast sizes of
	// the full box→owner table and the owner-delta form (equal to full when
	// the tiling changed and deltas do not apply).
	FullWireBytes  int
	DeltaWireBytes int
}

// RepartitionPlanCost measures one old→next repartition's plan-construction
// cost on a virtual cluster of size ranks, without running the cluster: the
// distributed per-rank builders are timed for each sampled rank and checked
// bit-for-bit against the centralized oracle. View construction and index
// warming run outside the timed region — in the live loop both are
// maintained incrementally across repartitions — so PerRankSec is the
// steady-state per-repartition cost a rank actually pays.
func RepartitionPlanCost(old, next *partition.Assignment, size int, sampleRanks []int, ghost int) (PlanCostReport, error) {
	var rep PlanCostReport
	if size < 1 || len(sampleRanks) == 0 {
		return rep, fmt.Errorf("engine: plan cost needs a cluster size and sampled ranks")
	}
	for _, r := range sampleRanks {
		if r < 0 || r >= size {
			return rep, fmt.Errorf("engine: sampled rank %d outside cluster of %d", r, size)
		}
	}
	t0 := time.Now()
	cg := centralGhostPlans(next, size, ghost, "")
	cm := centralMigPlans(old, next, size)
	rep.CentralSec = time.Since(t0).Seconds()

	rep.OracleOK = true
	var total float64
	for _, me := range sampleRanks {
		var sc commScratch
		ov := newAsnView(old, me)
		nv := newAsnView(next, me)
		sc.indexes.get(old.Boxes)
		sc.indexes.get(next.Boxes)
		t0 := time.Now()
		mp := buildMigPlan(ov, nv, me, &sc)
		gp := buildGhostPlan(nv, me, ghost, "", &sc)
		total += time.Since(t0).Seconds()
		if !ghostPlansEqual(gp, cg[me]) || !reflect.DeepEqual(mp, cm[me]) {
			rep.OracleOK = false
		}
	}
	rep.PerRankSec = total / float64(len(sampleRanks))

	full, err := transport.EncodeGob(wireAssignment{Boxes: next.Boxes, Owners: next.Owners})
	if err != nil {
		return rep, err
	}
	delta, err := transport.EncodeGob(encodeAssignment(newAsnView(old, -1), next))
	if err != nil {
		return rep, err
	}
	rep.FullWireBytes, rep.DeltaWireBytes = len(full), len(delta)
	return rep, nil
}

// ghostPlansEqual compares two ghost plans entry by entry, ignoring the
// scratch handle (an execution resource, not part of the plan).
func ghostPlansEqual(a, b *ghostPlan) bool {
	return slices.Equal(a.sends, b.sends) &&
		slices.Equal(a.recvs, b.recvs) &&
		slices.Equal(a.sendPeers, b.sendPeers) &&
		slices.Equal(a.recvPeers, b.recvPeers) &&
		slices.Equal(a.locals, b.locals) &&
		slices.Equal(a.interior, b.interior) &&
		slices.Equal(a.boundary, b.boundary)
}
