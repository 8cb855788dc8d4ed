package engine

import (
	"reflect"
	"testing"

	"samrpart/internal/partition"
	"samrpart/internal/transport"
)

// TestParallelPlanBuildersBitExact checks that the chunked worker-pool plan
// builders reproduce the serial plans exactly — same structs, same order —
// across widths, cluster shapes, and both plan kinds.
func TestParallelPlanBuildersBitExact(t *testing.T) {
	for _, tc := range []struct{ boxes, ranks int }{
		{16, 2}, {64, 4}, {256, 7}, {1024, 32},
	} {
		a := benchTileAssignment(tc.boxes, tc.ranks, 0)
		next := benchTileAssignment(tc.boxes, tc.ranks, 0)
		for i := range next.Owners {
			if i%4 == 0 {
				next.Owners[i] = (next.Owners[i] + 1) % tc.ranks
			}
		}
		for me := 0; me < tc.ranks; me++ {
			var serial commScratch
			wantGhost := buildGhostPlan(newAsnView(a, me), me, 2, "e1-", &serial)
			wantMig := buildMigPlan(newAsnView(a, me), newAsnView(next, me), me, &serial)
			for _, w := range []int{2, 3, 8} {
				par := commScratch{workers: w}
				gotGhost := buildGhostPlan(newAsnView(a, me), me, 2, "e1-", &par)
				if !ghostPlansEqual(gotGhost, wantGhost) {
					t.Fatalf("boxes=%d ranks=%d rank %d workers=%d: ghost plan differs from serial",
						tc.boxes, tc.ranks, me, w)
				}
				gotMig := buildMigPlan(newAsnView(a, me), newAsnView(next, me), me, &par)
				if !reflect.DeepEqual(gotMig, wantMig) {
					t.Fatalf("boxes=%d ranks=%d rank %d workers=%d: migration plan differs from serial",
						tc.boxes, tc.ranks, me, w)
				}
			}
		}
	}
}

// TestWorkersBitExactEndToEnd runs the same SPMD program serially and with
// intra-rank workers (parallel plan builds, frame pack, and region apply)
// and requires cell-bitwise identical results plus identical message and
// byte counters — the wire protocol must not notice the pool.
func TestWorkersBitExactEndToEnd(t *testing.T) {
	const ranks = 4
	run := func(workers int) []*SPMDResult {
		eps, err := transport.NewGroup(ranks)
		if err != nil {
			t.Fatal(err)
		}
		cfg := spmdConfig(12)
		cfg.CapsAt = capsSwitcher(ranks)
		cfg.Workers = workers
		return runSPMD(t, eps, cfg)
	}
	want := run(0)
	for _, w := range []int{2, 4} {
		got := run(w)
		for r := range got {
			if got[r].BytesSent != want[r].BytesSent || got[r].MsgsSent != want[r].MsgsSent {
				t.Fatalf("workers=%d rank %d: bytes/msgs %d/%d, serial %d/%d",
					w, r, got[r].BytesSent, got[r].MsgsSent, want[r].BytesSent, want[r].MsgsSent)
			}
		}
		comparePatchesBitExact(t, spmdConfig(12).Kernel.NumFields(),
			gatherPatches(t, got), gatherPatches(t, want))
	}
}

// TestWorkersBitExactFT repeats the worker differential with membership on,
// under the hierarchical partitioner and a crash + rejoin, so the pooled
// builders also run across epoch bumps and recovery replans.
func TestWorkersBitExactFT(t *testing.T) {
	const iters, ranks = 16, 4
	run := func(workers int) []*SPMDResult {
		eps, err := transport.NewGroup(ranks)
		if err != nil {
			t.Fatal(err)
		}
		cfg := elasticConfig(t, iters, t.TempDir())
		h := partition.NewHierarchical(2)
		h.GroupSize = 2
		cfg.Partitioner = h
		cfg.Workers = workers
		cfg.Faults = FaultSchedule{
			{Kind: FaultCrash, Rank: 2, Iter: 10},
			{Kind: FaultRejoin, Rank: 2, Iter: 12},
		}
		return runSPMD(t, wrapFaulty(eps), cfg)
	}
	want := composeField(t, run(0), spmdConfig(iters).Domain)
	got := composeField(t, run(4), spmdConfig(iters).Domain)
	requireSameField(t, got, want, "workers=4 vs serial across crash+rejoin")
}
