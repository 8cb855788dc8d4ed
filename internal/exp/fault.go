package exp

import (
	"fmt"
	"io"
	"os"

	"samrpart/internal/engine"
	"samrpart/internal/runlog"
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
		cfg := paperConfig("fault/"+sc.name, iters)
		cfg.SenseEvery = sc.senseEvery
		cfg.Faults = sc.faults
		tr, err := run(cfg, workstations(4), nil)
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
	refDir, err := os.MkdirTemp("", "samrpart-fault-ref")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(refDir)
	ref, err := runGroup(4, ftAdvection(iters, refDir), false)
	if err != nil {
		return nil, err
	}
	faultDir, err := os.MkdirTemp("", "samrpart-fault-run")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(faultDir)
	cfg := ftAdvection(iters, faultDir)
	cfg.Faults = engine.FaultSchedule{{Kind: engine.FaultCrash, Rank: crashRank % 4, Iter: crashIter}}
	results, err := runGroup(4, cfg, true)
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
	want := composeField(ref)
	res.cells = len(want)
	res.bitExact = sameField(composeField(results), want)
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
