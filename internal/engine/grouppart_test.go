package engine

import (
	"reflect"
	"sync"
	"testing"

	"samrpart/internal/partition"
	"samrpart/internal/transport"
)

// hierSPMDConfig is the SPMD test config with the hierarchical partitioner
// in 2-node groups, so even small rank counts exercise several groups (and
// odd counts a ragged last group).
func hierSPMDConfig(iters, ranks int) SPMDConfig {
	cfg := spmdConfig(iters)
	h := partition.NewHierarchical(2)
	h.GroupSize = 2
	cfg.Partitioner = h
	cfg.CapsAt = capsSwitcher(ranks)
	return cfg
}

// newTestRuns builds one spmdRun per endpoint and sets each up at iteration
// 0 (replicated partition, no messages), ready to be driven method by method.
func newTestRuns(t testing.TB, eps []transport.Endpoint, cfg SPMDConfig) []*spmdRun {
	t.Helper()
	runs := make([]*spmdRun, len(eps))
	for r, ep := range eps {
		run, err := newSPMDRun(ep, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := run.setup(0); err != nil {
			t.Fatal(err)
		}
		runs[r] = run
	}
	return runs
}

// eachRank runs fn concurrently for every rank and fails on the first error.
func eachRank(t *testing.T, n int, fn func(r int) error) {
	t.Helper()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(r)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestGroupLocalPartitionMatchesCentralPerRank drives the group-local
// gather directly: every rank slices its own group and the leaders feed
// rank 0's assembly, which must be bit-identical (DeepEqual, floats
// included) to the centralized Hierarchical.Partition — before and after
// the capacity shift, and at a ragged rank count.
func TestGroupLocalPartitionMatchesCentralPerRank(t *testing.T) {
	for _, ranks := range []int{4, 5} {
		cfg := hierSPMDConfig(4, ranks)
		h := cfg.Partitioner.(*partition.Hierarchical)
		for _, iter := range []int{0, 8} {
			eps, err := transport.NewGroup(ranks)
			if err != nil {
				t.Fatal(err)
			}
			runs := newTestRuns(t, eps, cfg)
			asns := make([]*partition.Assignment, ranks)
			eachRank(t, ranks, func(r int) (err error) {
				asns[r], err = runs[r].gatherGroups(h, iter, 0)
				return err
			})
			want, err := h.Partition(cfg.tiles(), cfg.CapsAt(iter), partition.CellWork)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(asns[0], want) {
				t.Fatalf("ranks=%d iter=%d: assembled assignment differs from centralized Partition", ranks, iter)
			}
			for r := 1; r < ranks; r++ {
				if asns[r] != nil {
					t.Fatalf("rank %d returned a non-nil assignment; only rank 0 assembles", r)
				}
			}
		}
	}
}

// intraGroupShift is a 4-rank capacity schedule for 2-rank groups that, from
// iteration 8 on, moves capacity from rank 0 to rank 1 inside group 0: the
// group quotas and so the box list stay put while owners move, which is what
// lets the owner-delta wire form travel.
func intraGroupShift(iter int) []float64 {
	if iter >= 8 {
		return []float64{0.125, 0.375, 0.25, 0.25}
	}
	return []float64{0.25, 0.25, 0.25, 0.25}
}

// TestGroupLocalFanOutMatchesReplicated drives the whole agreement — gather,
// root-side affinity remap, fan-out — and requires every rank's rebuilt view
// to equal the one the replicated decision (centralized Partition +
// RemapOwners on every rank) would have given it. The cases cover both wire
// forms: a capacity shift inside one group moves owners but keeps the box
// list, so the owner delta travels; a shift across groups and a dead rank 0
// (compacted capacities, non-zero root) reorder the list and fall back to
// the full table.
func TestGroupLocalFanOutMatchesReplicated(t *testing.T) {
	const ranks, iter = 4, 8
	for _, tc := range []struct {
		name      string
		capsAt    func(int) []float64
		dead      int
		wantDelta bool
	}{
		{"intra-group shift", intraGroupShift, -1, true},
		{"cross-group shift", capsSwitcher(ranks), -1, false},
		{"rank 0 dead", capsSwitcher(ranks), 0, false},
	} {
		cfg := hierSPMDConfig(4, ranks)
		cfg.CapsAt = tc.capsAt
		h := cfg.Partitioner.(*partition.Hierarchical)
		eps, err := transport.NewGroup(ranks)
		if err != nil {
			t.Fatal(err)
		}
		runs := newTestRuns(t, eps, cfg)
		standing := runs[0].assign
		alive := make([]bool, ranks)
		for r := range alive {
			alive[r] = r != tc.dead
			for _, run := range runs {
				run.alive[r] = alive[r]
			}
		}
		if tc.dead >= 0 { // a death bumps the tag epoch
			for _, run := range runs {
				run.setEpoch(1)
			}
		}
		views := make([]*asnView, ranks)
		eachRank(t, ranks, func(r int) (err error) {
			if alive[r] {
				views[r], err = runs[r].partitionGroupLocal(h, iter)
			}
			return err
		})
		want, err := partition.PartitionAlive(h, cfg.tiles(), cfg.CapsAt(iter), alive, partition.CellWork)
		if err != nil {
			t.Fatal(err)
		}
		want = partition.RemapOwners(standing.Assignment, want)
		if reflect.DeepEqual(want.Owners, standing.Owners) {
			t.Fatalf("%s: the repartition moved no owner", tc.name)
		}
		for r, v := range views {
			if !alive[r] {
				continue
			}
			ref := newAsnView(want, r)
			if !v.Boxes.Equal(ref.Boxes) || !reflect.DeepEqual(v.Owners, ref.Owners) || !reflect.DeepEqual(v.mine, ref.mine) {
				t.Fatalf("%s: rank %d: view rebuilt from the fan-out differs from the replicated decision", tc.name, r)
			}
			// A delta-built view aliases the rank's standing box list; a
			// full table brings its own copy.
			if delta := &v.Boxes[0] == &runs[r].assign.Boxes[0]; delta != tc.wantDelta {
				t.Errorf("%s: rank %d: owner delta traveled = %v, want %v", tc.name, r, delta, tc.wantDelta)
			}
		}
	}
}

// TestGroupLocalPartitionBitExact runs the hierarchical partitioner end to
// end — group-local stage 2, delta fan-out, migration — over the channel
// transport at an even and a ragged rank count, against the one-rank run.
func TestGroupLocalPartitionBitExact(t *testing.T) {
	for _, ranks := range []int{4, 5} {
		cfg := hierSPMDConfig(12, ranks)
		runAgainstOneRank(t, cfg, func() []transport.Endpoint {
			eps, err := transport.NewGroup(ranks)
			if err != nil {
				t.Fatal(err)
			}
			return eps
		})
	}
}

// TestGroupLocalPartitionBitExactTCP repeats the run over real sockets, so
// the segment gather and the fan-out also hold with a buffered, reordering
// wire underneath.
func TestGroupLocalPartitionBitExactTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP differential skipped in -short")
	}
	cfg := hierSPMDConfig(8, 4)
	runAgainstOneRank(t, cfg, func() []transport.Endpoint { return tcpGroup(t, 4) })
}

// hierElasticRun runs the elastic FT config under the hierarchical
// partitioner in 2-rank groups with the given fault schedule, on the
// intraGroupShift capacities: the scheduled repartition at iteration 8 then
// travels as an owner delta, and so do the unchanged-capacity ones later.
func hierElasticRun(t *testing.T, iters, ranks int, straggler bool, faults FaultSchedule) []*SPMDResult {
	t.Helper()
	eps, err := transport.NewGroup(ranks)
	if err != nil {
		t.Fatal(err)
	}
	cfg := elasticConfig(t, iters, t.TempDir())
	h := partition.NewHierarchical(2)
	h.GroupSize = 2
	cfg.Partitioner = h
	cfg.CapsAt = intraGroupShift
	if straggler {
		cfg.Straggler = true
	}
	cfg.Faults = faults
	return runSPMD(t, wrapFaulty(eps), cfg)
}

// TestGroupLocalPartitionBitExactElastic runs the hierarchical partitioner
// through membership changes: a mid-run crash + rejoin. The group-local
// gather and the fan-out must survive epoch bumps, compacted (dead-rank)
// capacity vectors and the admission repartition, where the joiner rebuilds
// its view against the standing assignment its welcome carried and applies
// owner deltas to it from then on — and the result must match the fault-free
// run of the same config cell for cell.
func TestGroupLocalPartitionBitExactElastic(t *testing.T) {
	const iters, ranks = 16, 4
	churned := hierElasticRun(t, iters, ranks, false, FaultSchedule{
		{Kind: FaultCrash, Rank: 2, Iter: 10},
		{Kind: FaultRejoin, Rank: 2, Iter: 12},
	})
	clean := hierElasticRun(t, iters, ranks, false, nil)
	if !churned[2].rejoined {
		t.Fatal("rank 2 never rejoined under group-local stage 2")
	}
	if churned[0].Admissions == 0 || churned[0].Repartitions <= clean[0].Repartitions {
		t.Fatalf("no admission repartition happened (admissions %d, repartitions %d vs %d fault-free)",
			churned[0].Admissions, churned[0].Repartitions, clean[0].Repartitions)
	}
	domain := spmdConfig(iters).Domain
	requireSameField(t, composeField(t, churned, domain), composeField(t, clean, domain),
		"hierarchical crash+rejoin vs fault-free")
}

// TestGroupLocalPartitionBitExactStragglerShed dilates one rank's compute so
// the straggler detector demotes it mid-run: the group-local gather then
// runs over demoted capacity vectors (and a quarantined rank participates
// as a pure receiver if shedding reaches that stage) and must still match
// the undisturbed run.
func TestGroupLocalPartitionBitExactStragglerShed(t *testing.T) {
	const iters, ranks = 24, 4
	shed := hierElasticRun(t, iters, ranks, true, FaultSchedule{
		{Kind: FaultSlow, Rank: 1, Iter: 6, Until: 20, Factor: 8},
	})
	clean := hierElasticRun(t, iters, ranks, false, nil)
	if shed[0].StragglerDemotions == 0 {
		t.Error("slow window never demoted the straggler")
	}
	domain := spmdConfig(iters).Domain
	requireSameField(t, composeField(t, shed, domain), composeField(t, clean, domain),
		"hierarchical run under straggler shed vs undisturbed")
}
