package engine

import (
	"errors"
	"sync"
	"testing"
	"time"

	"samrpart/internal/geom"
	"samrpart/internal/transport"
)

// wrapFaulty wraps every endpoint of a group in a no-op Faulty wrapper (so
// the engine can kill a rank through transport.Killer).
func wrapFaulty(eps []transport.Endpoint) []transport.Endpoint {
	out := make([]transport.Endpoint, len(eps))
	for i, ep := range eps {
		out[i] = transport.NewFaulty(ep, transport.FaultSpec{})
	}
	return out
}

// composeField reassembles the global field-0 solution from per-rank results
// (crashed ranks are skipped) and checks it covers the domain exactly once.
func composeField(t *testing.T, results []*SPMDResult, domain geom.Box) map[geom.Point]float64 {
	t.Helper()
	field := make(map[geom.Point]float64, domain.Cells())
	for _, res := range results {
		if res == nil || res.Crashed {
			continue
		}
		for _, p := range res.Patches {
			p.EachInterior(func(pt geom.Point) {
				if prev, dup := field[pt]; dup && prev != p.At(0, pt) {
					t.Fatalf("cell %v owned twice with different values", pt)
				}
				field[pt] = p.At(0, pt)
			})
		}
	}
	if int64(len(field)) != domain.Cells() {
		t.Fatalf("composed field covers %d cells, want %d", len(field), domain.Cells())
	}
	return field
}

// requireSameField asserts two composed solutions are bit-exact identical.
func requireSameField(t *testing.T, got, want map[geom.Point]float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells vs %d", label, len(got), len(want))
	}
	bad := 0
	for pt, w := range want {
		if g := got[pt]; g != w {
			bad++
			if bad <= 3 {
				t.Errorf("%s: cell %v = %g, want %g (bit-exact)", label, pt, g, w)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%s: %d cells differ", label, bad)
	}
}

func ftConfig(t *testing.T, iters int, dir string) SPMDConfig {
	cfg := spmdConfig(iters)
	cfg.CapsAt = capsSwitcher(4)
	cfg.RecvDeadline = 200 * time.Millisecond
	cfg.FT = FTConfig{
		Enabled:         true,
		CheckpointEvery: 4,
		CheckpointDir:   dir,
		SyncCheckpoint:  true,
	}
	return cfg
}

// TestFaultRecoveryBitExact is the end-to-end acceptance test: rank 2 is
// killed mid-run, the survivors detect it, agree, re-partition over the
// remaining ranks, restore from the latest collectively-stable checkpoint,
// and finish — with a final solution bit-exact identical to both a
// fault-free run and a fault-free run resumed from that same checkpoint.
func TestFaultRecoveryBitExact(t *testing.T) {
	const iters = 16
	dir := t.TempDir()

	// Reference: fault-free fault-tolerant run (no crash).
	refEps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := ftConfig(t, iters, t.TempDir())
	ref := runSPMD(t, refEps, refCfg)
	want := composeField(t, ref, refCfg.Domain)

	// Faulty run: rank 2 dies at the start of iteration 10. The last agreed
	// stable checkpoint is iteration 8 (written synchronously, advertised at
	// the clean heartbeat of iteration 9).
	eps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ftConfig(t, iters, dir)
	cfg.Faults = FaultSchedule{{Kind: FaultCrash, Rank: 2, Iter: 10}}
	results := runSPMD(t, wrapFaulty(eps), cfg)

	if !results[2].Crashed {
		t.Fatal("rank 2 did not crash")
	}
	if results[2].Recoveries != 0 {
		t.Errorf("crashed rank recovered itself: %+v", results[2])
	}
	for _, r := range []int{0, 1, 3} {
		res := results[r]
		if res.Crashed {
			t.Fatalf("survivor %d reports crashed", r)
		}
		if res.Recoveries != 1 {
			t.Errorf("rank %d Recoveries = %d, want 1", r, res.Recoveries)
		}
		if res.RestoredFrom != 8 {
			t.Errorf("rank %d RestoredFrom = %d, want 8", r, res.RestoredFrom)
		}
		if len(res.deadRanks) != 1 || res.deadRanks[0] != 2 {
			t.Errorf("rank %d DeadRanks = %v, want [2]", r, res.deadRanks)
		}
		if res.Checkpoints == 0 {
			t.Errorf("rank %d wrote no checkpoints", r)
		}
	}
	// No survivor may own tiles assigned to the dead rank.
	for _, r := range []int{0, 1, 3} {
		if len(results[r].OwnedBoxes) == 0 {
			t.Errorf("survivor %d owns nothing after recovery", r)
		}
	}
	got := composeField(t, results, cfg.Domain)
	requireSameField(t, got, want, "recovered vs fault-free")

	// A fault-free run restarted from the same checkpoint must also agree.
	resEps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	resCfg := ftConfig(t, iters, dir)
	resCfg.FT.ResumeFrom = 8
	resumed := runSPMD(t, resEps, resCfg)
	for _, res := range resumed {
		if res.Recoveries != 0 || res.Crashed {
			t.Fatalf("resumed run was not fault-free: %+v", res)
		}
	}
	gotResumed := composeField(t, resumed, resCfg.Domain)
	requireSameField(t, gotResumed, want, "resumed vs fault-free")
}

// TestFaultNoCheckpointRestartsFromInit verifies recovery without any
// checkpoint: survivors re-initialize from iteration 0 and still produce the
// fault-free solution.
func TestFaultNoCheckpointRestartsFromInit(t *testing.T) {
	const iters = 8

	refEps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := spmdConfig(iters)
	refCfg.CapsAt = capsSwitcher(4)
	ref := runSPMD(t, refEps, refCfg)
	want := composeField(t, ref, refCfg.Domain)

	eps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spmdConfig(iters)
	cfg.CapsAt = capsSwitcher(4)
	cfg.RecvDeadline = 200 * time.Millisecond
	cfg.FT = FTConfig{Enabled: true} // no checkpointing configured
	cfg.Faults = FaultSchedule{{Kind: FaultCrash, Rank: 1, Iter: 3}}
	results := runSPMD(t, wrapFaulty(eps), cfg)

	if !results[1].Crashed {
		t.Fatal("rank 1 did not crash")
	}
	for _, r := range []int{0, 2, 3} {
		if results[r].Recoveries != 1 || results[r].RestoredFrom != 0 {
			t.Errorf("rank %d recovery = (%d, from %d), want (1, from 0)",
				r, results[r].Recoveries, results[r].RestoredFrom)
		}
	}
	got := composeField(t, results, cfg.Domain)
	requireSameField(t, got, want, "re-initialized vs fault-free")
}

// TestFaultSilentPeerErrRankDown verifies a run with membership off never
// blocks forever on a silently-dead peer: the survivor's run fails
// with transport.ErrRankDown within the configured deadline.
func TestFaultSilentPeerErrRankDown(t *testing.T) {
	eps, err := transport.NewGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	feps := wrapFaulty(eps)
	cfg := spmdConfig(8)
	cfg.CapsAt = capsSwitcher(2)
	cfg.RecvDeadline = 150 * time.Millisecond
	cfg.Faults = FaultSchedule{{Kind: FaultCrash, Rank: 1, Iter: 2}}

	var wg sync.WaitGroup
	results := make([]*SPMDResult, 2)
	errs := make([]error, 2)
	start := time.Now()
	for r := range feps {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[r], errs[r] = RunSPMDRank(feps[r], cfg)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	if errs[1] != nil || !results[1].Crashed {
		t.Fatalf("rank 1: res=%+v err=%v, want clean crash", results[1], errs[1])
	}
	if !errors.Is(errs[0], transport.ErrRankDown) {
		t.Fatalf("rank 0 err = %v, want ErrRankDown", errs[0])
	}
	// The survivor must fail within a small multiple of the deadline — no
	// unbounded blocking call anywhere in its loop.
	if elapsed > 10*time.Second {
		t.Errorf("detection took %v with a 150ms deadline", elapsed)
	}
}

// TestFaultRecoveryTCP runs the recovery path over the real TCP transport:
// the killed rank's sockets stay open but silent, so detection exercises the
// deadline path (not disconnects).
func TestFaultRecoveryTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp recovery in -short mode")
	}
	const iters = 10
	refEps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := spmdConfig(iters)
	refCfg.CapsAt = capsSwitcher(4)
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
	cfg := spmdConfig(iters)
	cfg.CapsAt = capsSwitcher(4)
	cfg.RecvDeadline = 300 * time.Millisecond
	cfg.FT = FTConfig{
		Enabled:         true,
		CheckpointEvery: 3,
		CheckpointDir:   t.TempDir(),
		SyncCheckpoint:  true,
	}
	cfg.Faults = FaultSchedule{{Kind: FaultCrash, Rank: 1, Iter: 6}}
	results := runSPMD(t, wrapFaulty(eps), cfg)

	if !results[1].Crashed {
		t.Fatal("rank 1 did not crash")
	}
	for _, r := range []int{0, 2, 3} {
		if results[r].Recoveries != 1 || results[r].RestoredFrom != 3 {
			t.Errorf("rank %d recovery = (%d, from %d), want (1, from 3)",
				r, results[r].Recoveries, results[r].RestoredFrom)
		}
	}
	got := composeField(t, results, cfg.Domain)
	requireSameField(t, got, want, "tcp recovery vs fault-free")
}

// TestCrashFaultRequiresKiller verifies a crash fault on a bare endpoint is
// rejected instead of silently ignored.
func TestCrashFaultRequiresKiller(t *testing.T) {
	eps, err := transport.NewGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spmdConfig(2)
	cfg.CapsAt = capsSwitcher(1)
	cfg.Faults = FaultSchedule{{Kind: FaultCrash, Rank: 0, Iter: 0}}
	if _, err := RunSPMDRank(eps[0], cfg); err == nil {
		t.Error("bare endpoint accepted a crash fault")
	}
}

// TestPlainRunIsFTWithMembershipOff pins the one-loop contract: a fault-free
// run with membership on (heartbeats every step, no checkpoints) and a run
// with membership off execute the same step loop, so they agree cell for
// cell and on every data-plane counter, rank by rank. Only the control-plane
// bytes (heartbeats) may differ.
func TestPlainRunIsFTWithMembershipOff(t *testing.T) {
	const iters, ranks = 12, 4
	run := func(ft bool) []*SPMDResult {
		eps, err := transport.NewGroup(ranks)
		if err != nil {
			t.Fatal(err)
		}
		cfg := spmdConfig(iters)
		cfg.CapsAt = capsSwitcher(ranks)
		cfg.FT = FTConfig{Enabled: ft}
		return runSPMD(t, eps, cfg)
	}
	off, on := run(false), run(true)
	var migrated int64
	for r := range off {
		a, b := off[r], on[r]
		if a.MsgsSent != b.MsgsSent || a.msgsRecvd != b.msgsRecvd ||
			a.InteriorSteps != b.InteriorSteps || a.BoundarySteps != b.BoundarySteps ||
			a.Repartitions != b.Repartitions || a.MigratedBytes != b.MigratedBytes {
			t.Errorf("rank %d: data-plane counters differ:\n off %+v\n on  %+v", r, *a, *b)
		}
		migrated += a.MigratedBytes
		if b.BytesSent <= a.BytesSent {
			t.Errorf("rank %d: membership on sent %d B, off %d B: heartbeats should add bytes", r, b.BytesSent, a.BytesSent)
		}
	}
	if migrated == 0 {
		t.Error("no patch data migrated; the repartition path went unexercised")
	}
	domain := spmdConfig(iters).Domain
	requireSameField(t, composeField(t, on, domain), composeField(t, off, domain), "membership on vs off")
}

// TestRejoinValidatesFaultSchedule verifies a restarted rank checks its
// fault schedule against the group size like a first start does.
func TestRejoinValidatesFaultSchedule(t *testing.T) {
	eps, err := transport.NewGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ftConfig(t, 4, t.TempDir())
	cfg.CapsAt = capsSwitcher(2)
	cfg.Faults = FaultSchedule{{Kind: FaultCrash, Rank: 7, Iter: 1}}
	if _, err := RejoinSPMDRank(wrapFaulty(eps)[1], cfg); err == nil {
		t.Error("rejoin accepted a fault schedule targeting rank 7 of 2")
	}
}
