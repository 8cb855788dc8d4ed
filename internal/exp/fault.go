package exp

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"samrpart/internal/engine"
	"samrpart/internal/geom"
	"samrpart/internal/partition"
	"samrpart/internal/runlog"
	"samrpart/internal/solver"
	"samrpart/internal/transport"
)

// faultClusterRow is one virtual-cluster scenario of the fault study.
type faultClusterRow struct {
	scenario string
	execSec  float64
	slowdown float64 // vs the fault-free adaptive run
	movedMB  float64
	senses   int
}

// faultRankRow is one SPMD rank's recovery outcome.
type faultRankRow struct {
	rank         int
	crashed      bool
	recoveries   int
	restoredFrom int
	checkpoints  int
	boxes        int
}

// FaultRecoveryResult combines the two halves of the fault study: the
// virtual-cluster reaction to a crashed node (adaptive vs static), and the
// real SPMD runtime's checkpoint-based rank recovery with a bit-exactness
// check against a fault-free run.
type FaultRecoveryResult struct {
	cluster  []faultClusterRow
	ranks    []faultRankRow
	bitExact bool
	cells    int
}

// FaultRecovery runs both halves with a crash of rank/node `crashRank` at
// iteration `crashIter`.
func FaultRecovery(iters, crashRank, crashIter int) (*FaultRecoveryResult, error) {
	res := &FaultRecoveryResult{}

	// Half 1: virtual cluster. A 4-node run where the node dies under
	// saturating external load; the adaptive configuration re-senses and
	// repartitions, the static one keeps the dead node's share assigned.
	crash := engine.FaultSchedule{{Kind: engine.FaultCrash, Rank: crashRank, Iter: crashIter}}
	scenarios := []struct {
		name       string
		senseEvery int
		faults     engine.FaultSchedule
	}{
		{"fault-free (adaptive)", 5, nil},
		{"node crash, static", 0, crash},
		{"node crash, adaptive", 5, crash},
	}
	var base float64
	for _, sc := range scenarios {
		clus, err := NewCluster(4)
		if err != nil {
			return nil, err
		}
		cfg := engine.Config{
			Name:        "fault/" + sc.name,
			Hierarchy:   RM3DHierarchy(),
			App:         engine.NewRM3DOracle(),
			Partitioner: partition.NewHetero(),
			Iterations:  iters,
			RegridEvery: 5,
			SenseEvery:  sc.senseEvery,
			Faults:      sc.faults,
			Obs:         obsRT,
		}
		e, err := engine.New(cfg, clus)
		if err != nil {
			return nil, err
		}
		tr, err := e.Run()
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = tr.ExecTime
		}
		row := faultClusterRow{
			scenario: sc.name,
			execSec:  tr.ExecTime,
			movedMB:  tr.MovedBytes / 1e6,
			senses:   tr.Senses,
		}
		if base > 0 {
			row.slowdown = tr.ExecTime / base
		}
		res.cluster = append(res.cluster, row)
	}

	// Half 2: the SPMD runtime. Four ranks over the in-process transport;
	// the crashed rank goes silent mid-run, survivors detect it via the
	// heartbeat round, re-partition, restore from the latest stable
	// checkpoint and finish. The composed solution must be bit-exact
	// identical to a fault-free run.
	spmdCfg := func(dir string) engine.SPMDConfig {
		return engine.SPMDConfig{
			Domain:       geom.Box2(0, 0, 31, 31),
			TileSize:     8,
			Kernel:       solver.NewAdvection2D(1.0, 0.5, 0.3, 0.3, 0.1),
			BaseGrid:     solver.UniformGrid(1.0 / 32),
			Partitioner:  partition.NewHetero(),
			CapsAt:       func(int) []float64 { return []float64{0.25, 0.25, 0.25, 0.25} },
			Iterations:   iters,
			RepartEvery:  4,
			RecvDeadline: 500 * time.Millisecond,
			Obs:          obsRT,
			FT: engine.FTConfig{
				Enabled:         true,
				CheckpointEvery: 4,
				CheckpointDir:   dir,
				SyncCheckpoint:  true,
			},
		}
	}
	runGroup := func(cfg engine.SPMDConfig, faulty bool) ([]*engine.SPMDResult, error) {
		eps, err := transport.NewGroup(4)
		if err != nil {
			return nil, err
		}
		if faulty {
			for i, ep := range eps {
				eps[i] = transport.NewFaulty(ep, transport.FaultSpec{})
			}
		}
		results := make([]*engine.SPMDResult, len(eps))
		errs := make([]error, len(eps))
		var wg sync.WaitGroup
		for r := range eps {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[r], errs[r] = engine.RunSPMDRank(eps[r], cfg)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return results, nil
	}
	compose := func(results []*engine.SPMDResult) map[geom.Point]float64 {
		field := map[geom.Point]float64{}
		for _, r := range results {
			if r == nil || r.Crashed {
				continue
			}
			for _, p := range r.Patches {
				p.EachInterior(func(pt geom.Point) { field[pt] = p.At(0, pt) })
			}
		}
		return field
	}

	refDir, err := os.MkdirTemp("", "samrpart-fault-ref")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(refDir)
	ref, err := runGroup(spmdCfg(refDir), false)
	if err != nil {
		return nil, err
	}
	faultDir, err := os.MkdirTemp("", "samrpart-fault-run")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(faultDir)
	cfg := spmdCfg(faultDir)
	cfg.Faults = engine.FaultSchedule{{Kind: engine.FaultCrash, Rank: crashRank % 4, Iter: crashIter}}
	results, err := runGroup(cfg, true)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		res.ranks = append(res.ranks, faultRankRow{
			rank:         r.Rank,
			crashed:      r.Crashed,
			recoveries:   r.Recoveries,
			restoredFrom: r.RestoredFrom,
			checkpoints:  r.Checkpoints,
			boxes:        len(r.OwnedBoxes),
		})
	}
	want := compose(ref)
	got := compose(results)
	res.cells = len(want)
	res.bitExact = len(got) == len(want)
	if res.bitExact {
		for pt, w := range want {
			if got[pt] != w {
				res.bitExact = false
				break
			}
		}
	}
	return res, nil
}

// Render writes both fault-study tables.
func (r *FaultRecoveryResult) Render(w io.Writer) error {
	tab := runlog.NewTable(
		"Node crash on the virtual cluster: adaptive repartitioning vs static",
		"Scenario", "Exec time (s)", "Slowdown", "Moved (MB)", "Senses")
	for _, row := range r.cluster {
		tab.AddF(row.scenario, row.execSec, row.slowdown, row.movedMB, row.senses)
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	tab = runlog.NewTable(
		"SPMD rank crash: heartbeat detection + checkpoint recovery",
		"Rank", "Crashed", "Recoveries", "Restored from", "Ckpt shards", "Boxes")
	for _, row := range r.ranks {
		tab.AddF(row.rank, row.crashed, row.recoveries, row.restoredFrom,
			row.checkpoints, row.boxes)
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	status := "IDENTICAL (bit-exact)"
	if !r.bitExact {
		status = "DIVERGED"
	}
	_, err := fmt.Fprintf(w, "Recovered solution vs fault-free run over %d cells: %s\n\n",
		r.cells, status)
	return err
}
