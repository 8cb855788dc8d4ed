package engine

import (
	"regexp"
	"strings"
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

// intraGroupShift is a 4-rank capacity schedule for 2-rank groups that, from
// iteration 8 on, moves capacity from rank 0 to rank 1 inside group 0: the
// group quotas and so the box list stay put while owners move.
func intraGroupShift(iter int) []float64 {
	if iter >= 8 {
		return []float64{0.125, 0.375, 0.25, 0.25}
	}
	return []float64{0.25, 0.25, 0.25, 0.25}
}

// TestHierarchicalBitExact runs the hierarchical partitioner end to end —
// replicated decision, migration — over the channel transport at an even and
// a ragged rank count, against the one-rank run.
func TestHierarchicalBitExact(t *testing.T) {
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

// TestHierarchicalBitExactTCP repeats the run over real sockets, with a
// buffered, reordering wire underneath.
func TestHierarchicalBitExactTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP differential skipped in -short")
	}
	cfg := hierSPMDConfig(8, 4)
	runAgainstOneRank(t, cfg, func() []transport.Endpoint { return tcpGroup(t, 4) })
}

// hierElasticRun runs the elastic FT config under the hierarchical
// partitioner in 2-rank groups with the given fault schedule, on the
// intraGroupShift capacities: the scheduled repartition at iteration 8 moves
// owners inside a group and keeps the box list.
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

// TestHierarchicalBitExactElastic runs the hierarchical partitioner through
// membership changes: a mid-run crash + rejoin. The decision must survive
// epoch bumps, compacted (dead-rank) capacity vectors and the admission
// repartition, where the joiner decides against the standing assignment its
// welcome carried — and the result must match the fault-free run of the same
// config cell for cell.
func TestHierarchicalBitExactElastic(t *testing.T) {
	const iters, ranks = 16, 4
	churned := hierElasticRun(t, iters, ranks, false, FaultSchedule{
		{Kind: FaultCrash, Rank: 2, Iter: 10},
		{Kind: FaultRejoin, Rank: 2, Iter: 12},
	})
	clean := hierElasticRun(t, iters, ranks, false, nil)
	if !churned[2].rejoined {
		t.Fatal("rank 2 never rejoined under the hierarchical partitioner")
	}
	if churned[0].Admissions == 0 || churned[0].Repartitions <= clean[0].Repartitions {
		t.Fatalf("no admission repartition happened (admissions %d, repartitions %d vs %d fault-free)",
			churned[0].Admissions, churned[0].Repartitions, clean[0].Repartitions)
	}
	domain := spmdConfig(iters).Domain
	requireSameField(t, composeField(t, churned, domain), composeField(t, clean, domain),
		"hierarchical crash+rejoin vs fault-free")
}

// TestHierarchicalBitExactStragglerShed dilates one rank's compute so the
// straggler detector demotes it mid-run: the decision then runs over demoted
// capacity vectors (and a quarantined rank owns nothing if shedding reaches
// that stage) and must still match the undisturbed run.
func TestHierarchicalBitExactStragglerShed(t *testing.T) {
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

// tagRecorder wraps an endpoint and records every tag it sends on and every
// collective it enters.
type tagRecorder struct {
	transport.TimedEndpoint
	mu   *sync.Mutex
	tags map[string]bool
}

func (e tagRecorder) note(tag string) {
	e.mu.Lock()
	e.tags[tag] = true
	e.mu.Unlock()
}

func (e tagRecorder) Send(to int, tag string, payload []byte) error {
	e.note(tag)
	return e.TimedEndpoint.Send(to, tag, payload)
}

func (e tagRecorder) Barrier() error {
	e.note("barrier")
	return e.TimedEndpoint.Barrier()
}

func (e tagRecorder) AllGather(payload []byte) ([][]byte, error) {
	e.note("allgather")
	return e.TimedEndpoint.AllGather(payload)
}

func (e tagRecorder) Bcast(root int, payload []byte) ([]byte, error) {
	e.note("bcast")
	return e.TimedEndpoint.Bcast(root, payload)
}

// stepTag matches the only traffic a step loop may send: halo exchange,
// migration, the dt reduction and heartbeats, each in its epoch's namespace.
var stepTag = regexp.MustCompile(`^e\d+-(gx|rx\d+|dt|hb\d+-\d+)$`)

// TestRepartitionSendsNothing runs 4 ranks with a repartition every second
// step under each partitioner kind and requires that nothing but step-loop
// traffic went over the wire: every rank decides each repartition locally
// from replicated state, so the decision itself is never communicated.
func TestRepartitionSendsNothing(t *testing.T) {
	const ranks = 4
	h := partition.NewHierarchical(2)
	h.GroupSize = 2
	for _, p := range []partition.Partitioner{h, partition.NewHetero(), partition.NewSFCHetero(2)} {
		t.Run(p.Name(), func(t *testing.T) {
			cfg := spmdConfig(12)
			cfg.Partitioner = p
			cfg.CapsAt = capsSwitcher(ranks)
			cfg.RepartEvery = 2
			eps, err := transport.NewGroup(ranks)
			if err != nil {
				t.Fatal(err)
			}
			rec := tagRecorder{mu: new(sync.Mutex), tags: map[string]bool{}}
			wrapped := make([]transport.Endpoint, ranks)
			for r, ep := range eps {
				rec.TimedEndpoint = ep.(transport.TimedEndpoint)
				wrapped[r] = rec
			}
			res := runSPMD(t, wrapped, cfg)
			if res[0].Repartitions == 0 {
				t.Fatal("no repartition happened")
			}
			migrated := false
			for tag := range rec.tags {
				if !stepTag.MatchString(tag) {
					t.Errorf("sent on tag %q, which is not halo, migration, dt or heartbeat traffic", tag)
				}
				migrated = migrated || strings.Contains(tag, "-rx")
			}
			if !migrated {
				t.Error("no migration traffic: the repartitions moved nothing")
			}
		})
	}
}
