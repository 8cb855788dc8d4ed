package exp

import (
	"fmt"
	"io"

	"samrpart/internal/capacity"
	"samrpart/internal/engine"
	"samrpart/internal/geom"
	"samrpart/internal/partition"
	"samrpart/internal/runlog"
	"samrpart/internal/solver"
)

// movementRow is one configuration of the migration-cost study.
type movementRow struct {
	scenario     string
	migratedKB   float64
	retainedKB   float64
	migratedPct  float64 // migrated / (migrated + retained)
	msgsSent     int64
	maxImbalance float64 // of the post-shift assignment, percent
	l1Sum        float64
}

// MovementResult measures what movement-aware repartitioning saves. The
// capacity vector rotates across the nodes mid-run — the classic dynamic-load
// case where a capacity-sorted partitioner reproduces the same geometric
// groups under permuted labels — and the study compares the SPMD runtime's
// actual migration traffic with the owner-affinity remap on and off. Balance
// must be identical in both rows; only the movement may differ.
type MovementResult struct {
	rows []movementRow
	// bitExact reports that both configurations finished with identical
	// solutions (the remap relabels ownership, never values).
	bitExact bool
	cells    int
}

// movementConfig is the shared run shape: 36 tiles across 3 ranks, one
// scheduled repartition at iteration 8 where the capacity vector rotates.
func movementConfig(iters int, noRemap bool) engine.SPMDConfig {
	return engine.SPMDConfig{
		Domain:      geom.Box2(0, 0, 47, 47),
		TileSize:    8,
		Kernel:      solver.NewAdvection2D(1.0, 0.5, 0.3, 0.3, 0.1),
		BaseGrid:    solver.UniformGrid(1.0 / 48),
		Partitioner: partition.NewHetero(),
		CapsAt: func(iter int) []float64 {
			if iter >= 8 {
				return []float64{0.375, 0.375, 0.25}
			}
			return []float64{0.25, 0.375, 0.375}
		},
		Iterations:      iters,
		RepartEvery:     8,
		NoAffinityRemap: noRemap,
		Obs:             obsRT,
	}
}

// Movement runs the study.
func Movement(iters int) (*MovementResult, error) {
	res := &MovementResult{}
	fields := map[string]map[geom.Point]float64{}
	for _, sc := range []struct {
		name    string
		noRemap bool
	}{
		{"repartition, affinity remap", false},
		{"repartition, no remap", true},
	} {
		cfg := movementConfig(iters, sc.noRemap)
		results, err := runGroup(3, cfg, false)
		if err != nil {
			return nil, err
		}
		row := movementRow{scenario: sc.name}
		work := make([]float64, len(results))
		for _, r := range results {
			row.migratedKB += float64(r.MigratedBytes) / 1e3
			row.retainedKB += float64(r.RetainedBytes) / 1e3
			row.msgsSent += r.MsgsSent
			row.l1Sum += r.L1Sum
			work[r.Rank] = float64(r.OwnedBoxes.TotalCells())
		}
		if tot := row.migratedKB + row.retainedKB; tot > 0 {
			row.migratedPct = row.migratedKB / tot * 100
		}
		// Post-shift balance, measured against the rotated capacity vector.
		caps := cfg.CapsAt(iters)
		total := 0.0
		for _, w := range work {
			total += w
		}
		ideal := make([]float64, len(caps))
		for k, c := range caps {
			ideal[k] = total * c
		}
		row.maxImbalance = capacity.MaxImbalance(work, ideal)
		res.rows = append(res.rows, row)
		fields[sc.name] = composeField(results)
	}
	withRemap := fields["repartition, affinity remap"]
	without := fields["repartition, no remap"]
	res.cells = len(withRemap)
	res.bitExact = sameField(withRemap, without)
	return res, nil
}

// Render writes the migration-cost table.
func (r *MovementResult) Render(w io.Writer) error {
	tab := runlog.NewTable(
		"Migration cost of a mid-run capacity rotation (3 ranks, 36 tiles)",
		"Scenario", "Migrated (KB)", "Retained (KB)", "Migrated (%)",
		"Msgs sent", "Max imbalance (%)")
	for _, row := range r.rows {
		tab.AddF(row.scenario, row.migratedKB, row.retainedKB, row.migratedPct,
			row.msgsSent, row.maxImbalance)
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	status := "IDENTICAL (bit-exact)"
	if !r.bitExact {
		status = "DIVERGED"
	}
	_, err := fmt.Fprintf(w, "Solutions with and without remap over %d cells: %s\n\n",
		r.cells, status)
	return err
}
