package engine

import (
	"os"
	"path/filepath"
	"testing"

	"samrpart/internal/checkpoint"
)

func TestParseFaultSpec(t *testing.T) {
	good := map[string]FaultEvent{
		"crash:rank=2,iter=10":                 {Kind: FaultCrash, Rank: 2, Iter: 10},
		"crash:node=1,iter=25":                 {Kind: FaultCrash, Rank: 1, Iter: 25},
		"crash:iter=0,rank=0":                  {Kind: FaultCrash, Rank: 0, Iter: 0},
		"rejoin:rank=2,iter=18":                {Kind: FaultRejoin, Rank: 2, Iter: 18},
		"pause:rank=3,iter=5":                  {Kind: FaultPause, Rank: 3, Iter: 5, Until: 6},
		"pause:rank=3,iter=5,iters=2":          {Kind: FaultPause, Rank: 3, Iter: 5, Until: 7},
		"pause:node=3,from=5,to=9":             {Kind: FaultPause, Rank: 3, Iter: 5, Until: 9},
		"slow:rank=1,from=12,to=20":            {Kind: FaultSlow, Rank: 1, Iter: 12, Until: 20, Factor: 4},
		"slow:rank=1,from=12,to=20,factor=8":   {Kind: FaultSlow, Rank: 1, Iter: 12, Until: 20, Factor: 8},
		"slow:rank=1,iter=12,iters=3,factor=2": {Kind: FaultSlow, Rank: 1, Iter: 12, Until: 15, Factor: 2},
	}
	for spec, want := range good {
		sched, err := ParseFaultSpec(spec)
		if err != nil {
			t.Errorf("%q: %v", spec, err)
			continue
		}
		if len(sched) != 1 || sched[0] != want {
			t.Errorf("%q = %+v, want %+v", spec, sched, want)
		}
	}
	bad := []string{
		"", ";", "crash", "crash:", "crash:rank=2", "crash:iter=3",
		"hang:rank=1,iter=2", "crash:rank=-1,iter=2", "crash:rank=x,iter=2",
		"crash:rank=1,iter=2,boom=3", "crash:rank=1,iter=2,iters=3",
		"rejoin:rank=1,iter=2,to=5", "pause:rank=1,iter=2,to=5,iters=3",
		"pause:rank=1,from=5,to=5", "slow:rank=1,iter=2,factor=1",
		"slow:rank=1,iter=2,factor=x", "pause:rank=1,iter=2,factor=3",
	}
	for _, spec := range bad {
		if _, err := ParseFaultSpec(spec); err == nil {
			t.Errorf("%q: accepted", spec)
		}
	}
}

func TestParseFaultSpecMultiEvent(t *testing.T) {
	sched, err := ParseFaultSpec("crash:rank=2,iter=10; rejoin:rank=2,iter=18 ;slow:rank=1,from=5,to=9")
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 3 {
		t.Fatalf("parsed %d events, want 3", len(sched))
	}
	if err := sched.validate(4); err != nil {
		t.Fatal(err)
	}
	if got := sched.Crashes(); len(got) != 1 || got[0].Rank != 2 {
		t.Errorf("Crashes() = %+v", got)
	}
	failStop := sched.WithoutRejoins()
	if len(failStop) != 2 {
		t.Errorf("WithoutRejoins() = %+v", failStop)
	}
	for _, ev := range failStop {
		if ev.Kind == FaultRejoin {
			t.Errorf("rejoin survived WithoutRejoins: %+v", ev)
		}
	}
}

func TestFaultScheduleValidate(t *testing.T) {
	cases := []struct {
		spec string
		n    int
		ok   bool
	}{
		{"crash:rank=2,iter=10;rejoin:rank=2,iter=18", 4, true},
		{"crash:rank=5,iter=10", 4, false},                       // rank out of range
		{"rejoin:rank=2,iter=18", 4, false},                      // rejoin without crash
		{"crash:rank=2,iter=10;rejoin:rank=2,iter=10", 4, false}, // rejoin not after crash
		{"crash:rank=2,iter=10;rejoin:rank=1,iter=18", 4, false}, // rejoin of a live rank
	}
	for _, tc := range cases {
		sched, err := ParseFaultSpec(tc.spec)
		if err != nil {
			t.Fatalf("%q: %v", tc.spec, err)
		}
		if err := sched.validate(tc.n); (err == nil) != tc.ok {
			t.Errorf("Validate(%q, n=%d) err=%v, want ok=%v", tc.spec, tc.n, err, tc.ok)
		}
	}
}

// TestEngineNodeCrashRepartitions crashes a virtual node mid-run and checks
// the engine immediately re-senses and moves essentially all work off it.
func TestEngineNodeCrashRepartitions(t *testing.T) {
	clus := newCluster(t, 4)
	cfg := advectionConfig()
	cfg.Iterations = 12
	cfg.SenseEvery = 4
	cfg.Faults = FaultSchedule{{Kind: FaultCrash, Rank: 2, Iter: 6}}
	e, err := New(cfg, clus)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	asn := e.assign
	if asn == nil {
		t.Fatal("no assignment after run")
	}
	total := asn.TotalWork()
	if total == 0 {
		t.Fatal("no work assigned")
	}
	// With CPU and memory saturated, only the (static) bandwidth term keeps
	// the node's capacity above zero: its share must fall far below the fair
	// quarter of a 4-node cluster.
	if share := asn.Work[2] / total; share > 0.15 {
		t.Errorf("crashed node still holds %.0f%% of the work", 100*share)
	}
	caps := e.caps
	if caps[2] >= caps[0] {
		t.Errorf("crashed node capacity %g not degraded below %g", caps[2], caps[0])
	}
}

// TestEngineFaultValidation rejects out-of-range fault targets and bad
// checkpoint configs.
func TestEngineFaultValidation(t *testing.T) {
	cfg := advectionConfig()
	cfg.Faults = FaultSchedule{{Kind: FaultCrash, Rank: 9, Iter: 1}}
	if _, err := New(cfg, newCluster(t, 2)); err == nil {
		t.Error("fault on nonexistent node accepted")
	}
	cfg2 := advectionConfig()
	cfg2.CheckpointEvery = 2 // no path
	if _, err := New(cfg2, newCluster(t, 2)); err == nil {
		t.Error("CheckpointEvery without CheckpointPath accepted")
	}
	cfg3 := advectionConfig()
	cfg3.Faults = FaultSchedule{{Kind: FaultCrash, Rank: -1, Iter: 1}}
	if _, err := New(cfg3, newCluster(t, 2)); err == nil {
		t.Error("negative fault rank accepted")
	}
}

// TestEnginePeriodicCheckpointRestorable writes periodic checkpoints during a
// run and restores a fresh engine from the latest one.
func TestEnginePeriodicCheckpointRestorable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	clus := newCluster(t, 2)
	cfg := advectionConfig()
	cfg.Iterations = 10
	cfg.CheckpointEvery = 3
	cfg.CheckpointPath = path
	e, err := New(cfg, clus)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	st, err := checkpoint.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iter != 9 {
		t.Errorf("latest checkpoint iter = %d, want 9", st.Iter)
	}
	if len(st.Patches) == 0 {
		t.Error("periodic checkpoint carries no patches")
	}
	// A fresh engine must accept the state.
	e2, err := New(advectionConfig(), newCluster(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(st); err != nil {
		t.Fatalf("restore: %v", err)
	}
}
