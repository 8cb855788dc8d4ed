package engine

import (
	"errors"
	"os"
	"testing"
	"time"

	"samrpart/internal/checkpoint"
	"samrpart/internal/transport"
)

// elasticConfig is ftConfig plus the control/data deadline split: a tight
// control deadline keeps failure detection fast while bulk transfers get a
// generous data deadline.
func elasticConfig(t *testing.T, iters int, dir string) SPMDConfig {
	cfg := ftConfig(t, iters, dir)
	cfg.RecvDeadline = 2 * time.Second
	cfg.ControlDeadline = 200 * time.Millisecond
	return cfg
}

// TestSPMDCrashRejoinBitExact is the tentpole's differential oracle: rank 2
// crashes mid-run and a scheduled rejoin restarts it; the survivors detect
// the death, recover, then re-admit the rank at the next clean heartbeat and
// hand its share of the work back. The final composed solution must be
// bit-exact identical to a run where the rank never left.
func TestSPMDCrashRejoinBitExact(t *testing.T) {
	const iters = 16

	refEps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := elasticConfig(t, iters, t.TempDir())
	ref := runSPMD(t, refEps, refCfg)
	want := composeField(t, ref, refCfg.Domain)

	eps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := elasticConfig(t, iters, t.TempDir())
	cfg.Faults = FaultSchedule{
		{Kind: FaultCrash, Rank: 2, Iter: 10},
		{Kind: FaultRejoin, Rank: 2, Iter: 12},
	}
	results := runSPMD(t, wrapFaulty(eps), cfg)

	if results[2].Crashed {
		t.Fatal("rank 2 reported a terminal crash despite the scheduled rejoin")
	}
	if !results[2].rejoined {
		t.Fatal("rank 2 never rejoined")
	}
	if len(results[2].OwnedBoxes) == 0 {
		t.Error("rejoined rank owns nothing at exit")
	}
	for _, r := range []int{0, 1, 3} {
		res := results[r]
		if res.Recoveries != 1 {
			t.Errorf("rank %d Recoveries = %d, want 1", r, res.Recoveries)
		}
		if res.Admissions != 1 {
			t.Errorf("rank %d Admissions = %d, want 1", r, res.Admissions)
		}
		if len(res.deadRanks) != 0 {
			t.Errorf("rank %d still lists dead ranks %v after re-admission", r, res.deadRanks)
		}
	}
	got := composeField(t, results, cfg.Domain)
	requireSameField(t, got, want, "crash+rejoin vs fault-free")
}

// TestSPMDPauseBitExact injects a pause — the gray-failure variant: the rank
// goes silent at an iteration boundary and immediately asks back in. The
// survivors treat it exactly like a crash-and-restart, and the solution
// stays bit-exact.
func TestSPMDPauseBitExact(t *testing.T) {
	const iters = 12

	refEps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := elasticConfig(t, iters, t.TempDir())
	ref := runSPMD(t, refEps, refCfg)
	want := composeField(t, ref, refCfg.Domain)

	eps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := elasticConfig(t, iters, t.TempDir())
	cfg.Faults = FaultSchedule{
		{Kind: FaultPause, Rank: 3, Iter: 6, Until: 8},
	}
	results := runSPMD(t, wrapFaulty(eps), cfg)

	if results[3].Crashed || !results[3].rejoined {
		t.Fatalf("paused rank: crashed=%v rejoined=%v, want clean rejoin",
			results[3].Crashed, results[3].rejoined)
	}
	for _, r := range []int{0, 1, 2} {
		if results[r].Recoveries != 1 || results[r].Admissions != 1 {
			t.Errorf("rank %d recoveries/admissions = %d/%d, want 1/1",
				r, results[r].Recoveries, results[r].Admissions)
		}
	}
	got := composeField(t, results, cfg.Domain)
	requireSameField(t, got, want, "pause vs fault-free")
}

// TestSPMDRejoinTCP runs the crash+rejoin oracle over the real TCP
// transport, where the revived rank re-announces over sockets that stayed
// open while it was "dead".
func TestSPMDRejoinTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp rejoin in -short mode")
	}
	const iters = 12

	refEps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := elasticConfig(t, iters, t.TempDir())
	ref := runSPMD(t, refEps, refCfg)
	want := composeField(t, ref, refCfg.Domain)

	eps, err := transport.NewTCPGroup(4, "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	cfg := elasticConfig(t, iters, t.TempDir())
	cfg.ControlDeadline = 300 * time.Millisecond
	cfg.Faults = FaultSchedule{
		{Kind: FaultCrash, Rank: 1, Iter: 6},
		{Kind: FaultRejoin, Rank: 1, Iter: 8},
	}
	results := runSPMD(t, wrapFaulty(eps), cfg)

	if results[1].Crashed || !results[1].rejoined {
		t.Fatalf("rank 1: crashed=%v rejoined=%v, want rejoin", results[1].Crashed, results[1].rejoined)
	}
	got := composeField(t, results, cfg.Domain)
	requireSameField(t, got, want, "tcp rejoin vs fault-free")
}

// TestSPMDStragglerShed dilates rank 1's compute by 8x for a window and
// checks the heartbeat-gossiped detector replicas shed it and promote it
// back — identically on every rank — without perturbing the solution.
func TestSPMDStragglerShed(t *testing.T) {
	const iters = 36

	refEps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := elasticConfig(t, iters, t.TempDir())
	ref := runSPMD(t, refEps, refCfg)
	want := composeField(t, ref, refCfg.Domain)

	eps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := elasticConfig(t, iters, t.TempDir())
	cfg.Straggler = true
	cfg.Faults = FaultSchedule{
		{Kind: FaultSlow, Rank: 1, Iter: 6, Until: 20, Factor: 8},
	}
	results := runSPMD(t, wrapFaulty(eps), cfg)

	first := results[0]
	if first.StragglerDemotions == 0 {
		t.Error("slow window never demoted the straggler")
	}
	if first.StragglerPromotions == 0 {
		t.Error("straggler never promoted back after the window closed")
	}
	for _, res := range results[1:] {
		if res.StragglerDemotions != first.StragglerDemotions ||
			res.StragglerPromotions != first.StragglerPromotions {
			t.Errorf("rank %d detector replica diverged: %d/%d vs rank 0's %d/%d",
				res.Rank, res.StragglerDemotions, res.StragglerPromotions,
				first.StragglerDemotions, first.StragglerPromotions)
		}
		if res.Admissions != 0 || res.Recoveries != 0 {
			t.Errorf("rank %d saw admissions/recoveries %d/%d during a shed-only run",
				res.Rank, res.Admissions, res.Recoveries)
		}
	}
	got := composeField(t, results, cfg.Domain)
	requireSameField(t, got, want, "straggler shed vs clean run")
}

// TestSPMDCheckpointFallback corrupts the newest checkpoint epoch and checks
// a restart falls back to the previous intact one — per shard CRC detection,
// typed error, and a solution still bit-exact with the fault-free run.
func TestSPMDCheckpointFallback(t *testing.T) {
	const iters = 16
	dir := t.TempDir()

	refEps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := elasticConfig(t, iters, t.TempDir())
	ref := runSPMD(t, refEps, refCfg)
	want := composeField(t, ref, refCfg.Domain)

	// First run writes shards at iterations 4, 8, 12.
	eps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	runSPMD(t, eps, elasticConfig(t, iters, dir))

	// Corrupt every rank's newest shard.
	for rank := 0; rank < 4; rank++ {
		p := checkpoint.ShardPath(dir, 12, rank)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := checkpoint.LoadShards(dir, 12); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("corrupted shards load error = %v, want ErrCorrupt", err)
	}

	// Restarting from the corrupted epoch must fall back to iteration 8.
	resEps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	resCfg := elasticConfig(t, iters, dir)
	resCfg.FT.ResumeFrom = 12
	resumed := runSPMD(t, resEps, resCfg)
	for _, res := range resumed {
		if res.CkptFallbacks != 1 {
			t.Errorf("rank %d CkptFallbacks = %d, want 1", res.Rank, res.CkptFallbacks)
		}
	}
	got := composeField(t, resumed, resCfg.Domain)
	requireSameField(t, got, want, "corrupt-fallback resume vs fault-free")
}

// TestSPMDCheckpointRetention checks CheckpointKeep prunes old epochs below
// the agreed stable point while never touching the stable epoch itself.
func TestSPMDCheckpointRetention(t *testing.T) {
	const iters = 16
	dir := t.TempDir()
	eps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := elasticConfig(t, iters, dir)
	cfg.FT.CheckpointKeep = 1
	runSPMD(t, eps, cfg)

	// Checkpoints land at 4, 8, 12. When 12 is written the agreed stable
	// point is 8, so retention keeps 8 (the newest epoch <= stable) and
	// leaves 12 (above stable) alone; only the iteration-4 shards go.
	for rank := 0; rank < 4; rank++ {
		if _, err := os.Stat(checkpoint.ShardPath(dir, 4, rank)); !os.IsNotExist(err) {
			t.Errorf("rank %d iteration-4 shard survived pruning: %v", rank, err)
		}
		for _, it := range []int{8, 12} {
			if _, err := os.Stat(checkpoint.ShardPath(dir, it, rank)); err != nil {
				t.Errorf("rank %d iteration-%d shard missing: %v", rank, it, err)
			}
		}
	}
}
