package exp

import (
	"fmt"
	"io"
	"time"

	"samrpart/internal/engine"
	"samrpart/internal/geom"
	"samrpart/internal/partition"
	"samrpart/internal/runlog"
)

// weakBoxesPerRank fixes the per-rank workload of the weak-scaling sweep:
// the cluster grows, each rank's share does not, so any per-rank cost that
// grows with the rank count is a scalability wall.
const weakBoxesPerRank = 4

// weakScalingRow is one virtual cluster size of the sweep.
type weakScalingRow struct {
	ranks int
	boxes int // partitioner output boxes (tiles plus any quota splits)
	// partitionMS is the wall time of one hierarchical Partition call — the
	// decision every rank replicates per repartition.
	partitionMS float64
	// perRankUS is the mean wall time a sampled rank spends building its own
	// ghost and migration plans (distributed path, steady state).
	perRankUS float64
	// centralMS is one centralized build of every rank's plans — the cost
	// each rank paid per repartition before plan construction was
	// distributed.
	centralMS float64
	// speedup is CentralMS over PerRankUS (same units).
	speedup float64
	// oracleOK reports the sampled distributed plans matched the
	// centralized oracle bit-for-bit.
	oracleOK bool
}

// WeakScalingResult is a weak-scaling study of repartition plan
// construction on virtual clusters up to 4096 ranks: boxes per rank held
// fixed, the hierarchical partitioner produces an old and a next assignment
// (capacities permuted within some groups, the steady-state owner-only
// shift), and engine.RepartitionPlanCost measures the distributed per-rank
// plan build against the retained centralized oracle. No transport group is
// spun up — the study measures exactly the decision+plan path whose scaling
// the rank-0 bottleneck used to cap.
type WeakScalingResult struct {
	boxesPerRank int
	groupSize    int
	rows         []weakScalingRow
}

// weakCaps builds the deterministic heterogeneous capacity vector (values
// cycle through 4 distinct levels) and its mid-run successor, which swaps
// the first two members' capacities in every fourth group — ownership moves
// inside those groups, the tiling stays put.
func weakCaps(ranks, groupSize int) (capsA, capsB []float64) {
	capsA = make([]float64, ranks)
	for i := range capsA {
		capsA[i] = 1 + float64(i%4)/4
	}
	capsB = append([]float64(nil), capsA...)
	for g := 0; g*groupSize+1 < ranks; g += 4 {
		lo := g * groupSize
		capsB[lo], capsB[lo+1] = capsB[lo+1], capsB[lo]
	}
	norm := func(caps []float64) {
		total := 0.0
		for _, c := range caps {
			total += c
		}
		for i := range caps {
			caps[i] /= total
		}
	}
	norm(capsA)
	norm(capsB)
	return capsA, capsB
}

// weakTiles builds the fixed decomposition for a rank count: 8x8 tiles in a
// square grid of weakBoxesPerRank*ranks boxes (rank counts are powers of 4,
// so the grid is exactly square).
func weakTiles(ranks int) geom.BoxList {
	n := weakBoxesPerRank * ranks
	side := 1
	for side*side < n {
		side++
	}
	tiles := make(geom.BoxList, 0, side*side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			tiles = append(tiles, geom.Box2(x*8, y*8, x*8+7, y*8+7))
		}
	}
	return tiles
}

// WeakScaling runs the sweep over the rank ladder 16..maxRanks.
func WeakScaling(maxRanks, groupSize int) (*WeakScalingResult, error) {
	if maxRanks < 16 {
		maxRanks = 16
	}
	if groupSize < 1 {
		groupSize = 64
	}
	res := &WeakScalingResult{boxesPerRank: weakBoxesPerRank, groupSize: groupSize}
	for _, ranks := range []int{16, 64, 256, 1024, 4096} {
		if ranks > maxRanks {
			break
		}
		tiles := weakTiles(ranks)
		capsA, capsB := weakCaps(ranks, groupSize)
		h := partition.NewHierarchical(2)
		h.GroupSize = groupSize
		old, err := h.Partition(tiles, capsA, partition.CellWork)
		if err != nil {
			return nil, fmt.Errorf("exp: weak scaling %d ranks: %w", ranks, err)
		}
		t0 := time.Now()
		next, err := h.Partition(tiles, capsB, partition.CellWork)
		if err != nil {
			return nil, err
		}
		decide := time.Since(t0)
		samples := []int{0, ranks / 2, ranks - 1}
		rep, err := engine.RepartitionPlanCost(old, next, ranks, samples, 1)
		if err != nil {
			return nil, err
		}
		row := weakScalingRow{
			ranks:       ranks,
			boxes:       len(next.Boxes),
			partitionMS: decide.Seconds() * 1e3,
			perRankUS:   rep.PerRankSec * 1e6,
			centralMS:   rep.CentralSec * 1e3,
			oracleOK:    rep.OracleOK,
		}
		if rep.PerRankSec > 0 {
			row.speedup = rep.CentralSec / rep.PerRankSec
		}
		res.rows = append(res.rows, row)
	}
	return res, nil
}

// Render writes the weak-scaling table.
func (r *WeakScalingResult) Render(w io.Writer) error {
	tab := runlog.NewTable(
		fmt.Sprintf("Weak scaling of repartition plan construction (%d boxes/rank, hierarchical groups of %d)",
			r.boxesPerRank, r.groupSize),
		"Ranks", "Boxes", "Partition (ms)", "Per-rank plan (µs)", "Central (ms)",
		"Speedup (×)", "Oracle")
	for _, row := range r.rows {
		oracle := "OK"
		if !row.oracleOK {
			oracle = "MISMATCH"
		}
		tab.AddF(row.ranks, row.boxes, row.partitionMS, row.perRankUS, row.centralMS,
			row.speedup, oracle)
	}
	return tab.Render(w)
}

// WriteCSV emits the sweep for artifact upload and plotting.
func (r *WeakScalingResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w,
		"ranks,boxes,partition_ms,per_rank_us,central_ms,speedup,oracle_ok"); err != nil {
		return err
	}
	for _, row := range r.rows {
		if _, err := fmt.Fprintf(w, "%d,%d,%.4f,%.4f,%.4f,%.2f,%t\n",
			row.ranks, row.boxes, row.partitionMS, row.perRankUS, row.centralMS,
			row.speedup, row.oracleOK); err != nil {
			return err
		}
	}
	return nil
}
