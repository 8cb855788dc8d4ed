package engine

import (
	"reflect"
	"testing"

	"samrpart/internal/partition"
	"samrpart/internal/transport"
)

// TestDistributedGhostPlansMatchOracle checks, for every rank of several
// cluster shapes, that the distributed per-rank ghost-plan builder produces
// a plan bit-identical to the centralized global pass.
func TestDistributedGhostPlansMatchOracle(t *testing.T) {
	for _, tc := range []struct{ boxes, ranks int }{
		{16, 2}, {64, 4}, {256, 7}, {1024, 32},
	} {
		a := benchTileAssignment(tc.boxes, tc.ranks, 0)
		central := centralGhostPlans(a, tc.ranks, 2, "e1-")
		for me := 0; me < tc.ranks; me++ {
			var sc commScratch
			got := buildGhostPlan(newAsnView(a, me), me, 2, "e1-", &sc)
			if !ghostPlansEqual(got, central[me]) {
				t.Fatalf("boxes=%d ranks=%d: rank %d distributed ghost plan differs from oracle",
					tc.boxes, tc.ranks, me)
			}
		}
	}
}

// TestDistributedMigPlansMatchOracle checks every rank's distributed
// migration plan against the centralized oracle for a seam shift (owners
// move, tiling unchanged) and for a tiling change (different box lists).
func TestDistributedMigPlansMatchOracle(t *testing.T) {
	const n, ranks = 256, 8
	old := benchTileAssignment(n, ranks, 0)
	shifted := benchTileAssignment(n, ranks, 0)
	for i := range shifted.Owners {
		// Rotate every fourth tile's owner: sends, recvs and retained
		// regions all occur on every rank.
		if i%4 == 0 {
			shifted.Owners[i] = (shifted.Owners[i] + 1) % ranks
		}
	}
	coarse := benchTileAssignment(n/4, ranks, 0) // different tiling entirely
	for _, next := range []*partition.Assignment{shifted, coarse} {
		central := centralMigPlans(old, next, ranks)
		for me := 0; me < ranks; me++ {
			var sc commScratch
			got := buildMigPlan(newAsnView(old, me), newAsnView(next, me), me, &sc)
			if !reflect.DeepEqual(got, central[me]) {
				t.Fatalf("rank %d distributed migration plan differs from oracle", me)
			}
		}
	}
}

// TestRepartitionPlanCostOracle exercises the exported measurement: the
// sampled ranks must match the oracle.
func TestRepartitionPlanCostOracle(t *testing.T) {
	const n, ranks = 256, 16
	old := benchTileAssignment(n, ranks, 0)
	next := benchTileAssignment(n, ranks, 0)
	for i := 0; i < len(next.Owners); i += 8 {
		next.Owners[i] = (next.Owners[i] + 1) % ranks
	}
	rep, err := RepartitionPlanCost(old, next, ranks, []int{0, ranks / 2, ranks - 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OracleOK {
		t.Fatal("distributed plans diverged from the centralized oracle")
	}
	if _, err := RepartitionPlanCost(old, next, ranks, nil, 1); err == nil {
		t.Fatal("expected error for empty sample set")
	}
	if _, err := RepartitionPlanCost(old, next, ranks, []int{ranks}, 1); err == nil {
		t.Fatal("expected error for out-of-range sample rank")
	}
}

// TestAssignmentOfRejectsMalformed feeds the rejoin welcome's table decoder
// tables no healthy peer could have produced: each must fail instead of
// indexing out of range.
func TestAssignmentOfRejectsMalformed(t *testing.T) {
	const n, ranks = 16, 4
	a := benchTileAssignment(n, ranks, 0)
	if _, err := assignmentOf(a.Boxes, a.Owners[:n-1], ranks); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := assignmentOf(a.Boxes[:1], []int{-1}, ranks); err == nil {
		t.Error("rank -1 accepted")
	}
	if _, err := assignmentOf(a.Boxes[:1], []int{ranks}, ranks); err == nil {
		t.Error("rank out of range accepted")
	}
	if got, err := assignmentOf(a.Boxes, a.Owners, ranks); err != nil || !reflect.DeepEqual(got.Work, a.Work) {
		t.Errorf("well-formed table: err %v, work %v, want %v", err, got.Work, a.Work)
	}
}

// TestDistributedPlansBitExact3DOverTCP is the end-to-end form of the plan
// differential over real sockets: a live run is always routed through the
// distributed per-rank builders (their per-rank identity with the central
// builders is TestDistributed{Ghost,Mig}PlansMatchOracle), so with a mid-run
// repartition and migration it must reproduce the one-rank run cell for
// cell.
func TestDistributedPlansBitExact3DOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP differential skipped in -short")
	}
	cfg := euler3DConfig(6)
	cfg.RepartEvery = 3
	cfg.CapsAt = func(iter int) []float64 {
		if iter >= 3 { // rank 0 gains what rank 2 loses: every rank sends and receives
			return []float64{1.0 / 2, 1.0 / 3, 1.0 / 6}
		}
		return []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	}
	runAgainstOneRank(t, cfg, func() []transport.Endpoint { return tcpGroup(t, 3) })
}
