package engine

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"samrpart/internal/checkpoint"
	"samrpart/internal/monitor"
)

// TestEngineCrashRejoinRestoresWork crashes a node, rejoins it later, and
// checks its capacity and work share flow back at the next repartition.
func TestEngineCrashRejoinRestoresWork(t *testing.T) {
	clus := newCluster(t, 4)
	cfg := advectionConfig()
	cfg.Iterations = 20
	cfg.SenseEvery = 2
	cfg.Faults = FaultSchedule{
		{Kind: FaultCrash, Rank: 2, Iter: 4},
		{Kind: FaultRejoin, Rank: 2, Iter: 10},
	}
	e, err := New(cfg, clus)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Crashes != 1 || tr.Rejoins != 1 {
		t.Fatalf("crashes=%d rejoins=%d, want 1/1", tr.Crashes, tr.Rejoins)
	}
	caps := e.caps
	if caps[2] < 0.5*caps[0] {
		t.Errorf("rejoined node capacity %g never recovered toward %g", caps[2], caps[0])
	}
	asn := e.assign
	if asn == nil || asn.TotalWork() == 0 {
		t.Fatal("no final assignment")
	}
	if share := asn.Work[2] / asn.TotalWork(); share < 0.10 {
		t.Errorf("rejoined node ended with %.0f%% of the work", 100*share)
	}
}

// TestEngineRejoinIgnoredWhenStatic checks the static configuration stays
// blind: without sensing, neither the crash nor the rejoin changes the
// assignment, matching the paper's static-vs-adaptive contrast.
func TestEngineRejoinIgnoredWhenStatic(t *testing.T) {
	clus := newCluster(t, 4)
	cfg := advectionConfig()
	cfg.Iterations = 16
	cfg.SenseEvery = 0
	cfg.Faults = FaultSchedule{
		{Kind: FaultCrash, Rank: 2, Iter: 4},
		{Kind: FaultRejoin, Rank: 2, Iter: 10},
	}
	e, err := New(cfg, clus)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Repartitions == 0 {
		t.Fatal("no repartitions at all")
	}
	if share := e.assign.Work[2] / e.assign.TotalWork(); share < 0.15 {
		t.Errorf("static run shed the crashed node (share %.0f%%)", 100*share)
	}
}

// TestEngineSlowWindowDemotesStraggler dilates one node's compute by 8x and
// checks the straggler detector sheds it, then promotes it back after the
// window closes.
func TestEngineSlowWindowDemotesStraggler(t *testing.T) {
	clus := newCluster(t, 4)
	cfg := advectionConfig()
	cfg.Iterations = 30
	cfg.SenseEvery = 2
	cfg.Straggler = true
	cfg.Faults = FaultSchedule{
		{Kind: FaultSlow, Rank: 1, Iter: 4, Until: 16, Factor: 8},
	}
	e, err := New(cfg, clus)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tr.StragglerDemotions == 0 {
		t.Error("slow window never demoted the straggler")
	}
	if tr.StragglerPromotions == 0 {
		t.Error("straggler never promoted back after the window closed")
	}
	if st := e.strag.State(1); st != monitor.StragglerNormal {
		t.Errorf("node 1 ended %v, want normal", st)
	}
}

// TestEngineCheckpointRotationFallback retains stamped checkpoint siblings,
// corrupts the newer copies, and checks LoadFileFallback walks back to the
// newest intact epoch.
func TestEngineCheckpointRotationFallback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	cfg := advectionConfig()
	cfg.Iterations = 10
	cfg.CheckpointEvery = 3
	cfg.CheckpointPath = path
	cfg.CheckpointKeep = 2
	e, err := New(cfg, newCluster(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Checkpoints fire at iters 3, 6, 9; retention 2 keeps only 6 and 9.
	if _, err := os.Stat(checkpoint.RotatedPath(path, 3)); !os.IsNotExist(err) {
		t.Errorf("stamped iter-3 checkpoint survived pruning: %v", err)
	}
	for _, it := range []int{6, 9} {
		if _, err := os.Stat(checkpoint.RotatedPath(path, it)); err != nil {
			t.Fatalf("stamped iter-%d checkpoint missing: %v", it, err)
		}
	}
	corrupt := func(p string) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	corrupt(path)
	st, loaded, err := checkpoint.LoadFileFallback(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != checkpoint.RotatedPath(path, 9) || st.Iter != 9 {
		t.Fatalf("fallback loaded %s (iter %d), want stamped iter 9", loaded, st.Iter)
	}
	corrupt(checkpoint.RotatedPath(path, 9))
	st, loaded, err = checkpoint.LoadFileFallback(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != checkpoint.RotatedPath(path, 6) || st.Iter != 6 {
		t.Fatalf("fallback loaded %s (iter %d), want stamped iter 6", loaded, st.Iter)
	}
	corrupt(checkpoint.RotatedPath(path, 6))
	if _, _, err := checkpoint.LoadFileFallback(path); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("all-corrupt fallback error = %v, want ErrCorrupt", err)
	}
}
