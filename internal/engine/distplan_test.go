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
// sampled ranks must match the oracle and the delta wire form must beat the
// full table when only owners moved.
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
	if rep.DeltaWireBytes >= rep.FullWireBytes {
		t.Fatalf("delta wire form (%d B) not smaller than full table (%d B)",
			rep.DeltaWireBytes, rep.FullWireBytes)
	}
	if _, err := RepartitionPlanCost(old, next, ranks, nil, 1); err == nil {
		t.Fatal("expected error for empty sample set")
	}
	if _, err := RepartitionPlanCost(old, next, ranks, []int{ranks}, 1); err == nil {
		t.Fatal("expected error for out-of-range sample rank")
	}
}

// TestDeltaBroadcastRoundTrip checks that applying an owner-delta wire form
// reproduces exactly the view a full rebuild would give, for every rank,
// including the incremental mine list and owner table.
func TestDeltaBroadcastRoundTrip(t *testing.T) {
	const n, ranks = 64, 4
	old := benchTileAssignment(n, ranks, 0)
	next := benchTileAssignment(n, ranks, 0)
	for i := 0; i < len(next.Owners); i += 3 {
		next.Owners[i] = (next.Owners[i] + 2) % ranks
	}
	for me := 0; me < ranks; me++ {
		prev := newAsnView(old, me)
		wire := encodeAssignment(prev, next)
		if !wire.Delta {
			t.Fatal("expected the delta wire form for an owner-only change")
		}
		got := applyDelta(prev, &wire, me)
		want := newAsnView(next, me)
		if !reflect.DeepEqual(got.Owners, want.Owners) {
			t.Fatalf("rank %d: delta owners diverged", me)
		}
		if !reflect.DeepEqual(got.mine, want.mine) {
			t.Fatalf("rank %d: delta mine list %v, want %v", me, got.mine, want.mine)
		}
		if len(got.Boxes) != len(prev.Boxes) || &got.Boxes[0] != &prev.Boxes[0] {
			t.Fatalf("rank %d: delta view must alias the standing box list", me)
		}
	}
	// A tiling change must fall back to the full table.
	coarse := benchTileAssignment(n/4, ranks, 0)
	if wire := encodeAssignment(newAsnView(old, 0), coarse); wire.Delta {
		t.Fatal("delta wire form used across a tiling change")
	}
}

// TestMergeMine covers the incremental own-box list maintenance.
func TestMergeMine(t *testing.T) {
	for _, tc := range []struct {
		mine, add, del, want []int
	}{
		{[]int{1, 3, 5}, nil, nil, []int{1, 3, 5}},
		{[]int{1, 3, 5}, []int{0, 4, 9}, nil, []int{0, 1, 3, 4, 5, 9}},
		{[]int{1, 3, 5}, nil, []int{3}, []int{1, 5}},
		{[]int{1, 3, 5}, []int{2}, []int{1, 5}, []int{2, 3}},
		{nil, []int{7}, nil, []int{7}},
		{[]int{2}, nil, []int{2}, []int{}},
	} {
		got := mergeMine(tc.mine, tc.add, tc.del)
		if len(got) != len(tc.want) {
			t.Fatalf("mergeMine(%v,%v,%v) = %v, want %v", tc.mine, tc.add, tc.del, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("mergeMine(%v,%v,%v) = %v, want %v", tc.mine, tc.add, tc.del, got, tc.want)
			}
		}
	}
}

// TestDecodeAssignmentRejectsMalformed feeds the wire decoder forms no
// healthy peer could have produced: each must fail instead of indexing out
// of range.
func TestDecodeAssignmentRejectsMalformed(t *testing.T) {
	const n, ranks = 16, 4
	prev := newAsnView(benchTileAssignment(n, ranks, 0), 0)
	for name, wire := range map[string]wireAssignment{
		"delta length mismatch":   {Delta: true, Changed: []int32{1, 2}, NewOwners: []int32{0}},
		"delta box out of range":  {Delta: true, Changed: []int32{n}, NewOwners: []int32{0}},
		"delta rank out of range": {Delta: true, Changed: []int32{1}, NewOwners: []int32{ranks}},
		"full length mismatch":    {Boxes: prev.Boxes, Owners: prev.Owners[:n-1]},
		"full rank out of range":  {Boxes: prev.Boxes[:1], Owners: []int{-1}},
	} {
		if _, err := decodeAssignment(prev, &wire, 0, ranks); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := decodeAssignment(nil, &wireAssignment{Delta: true}, 0, ranks); err == nil {
		t.Error("delta without a standing assignment accepted")
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
