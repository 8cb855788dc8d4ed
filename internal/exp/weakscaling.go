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
	// stage1MS is the hierarchical stage-1 wall time (group the nodes, cut
	// the SFC curve into group segments) — the short global decision that
	// remains centralized.
	stage1MS float64
	// perRankUS is the mean wall time a sampled rank spends building its own
	// ghost and migration plans (distributed path, steady state).
	perRankUS float64
	// centralMS is one centralized build of every rank's plans — the cost
	// each rank paid per repartition before plan construction was
	// distributed.
	centralMS float64
	// speedup is CentralMS over PerRankUS (same units).
	speedup float64
	// fullKB and DeltaKB are the broadcast sizes of the full box→owner table
	// and the owner-delta wire form for this repartition.
	fullKB  float64
	deltaKB float64
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
		if _, err := h.PlanGroups(tiles, capsB, partition.CellWork); err != nil {
			return nil, err
		}
		stage1 := time.Since(t0)
		next, err := h.Partition(tiles, capsB, partition.CellWork)
		if err != nil {
			return nil, err
		}
		samples := []int{0, ranks / 2, ranks - 1}
		rep, err := engine.RepartitionPlanCost(old, next, ranks, samples, 1)
		if err != nil {
			return nil, err
		}
		row := weakScalingRow{
			ranks:     ranks,
			boxes:     len(next.Boxes),
			stage1MS:  stage1.Seconds() * 1e3,
			perRankUS: rep.PerRankSec * 1e6,
			centralMS: rep.CentralSec * 1e3,
			fullKB:    float64(rep.FullWireBytes) / 1e3,
			deltaKB:   float64(rep.DeltaWireBytes) / 1e3,
			oracleOK:  rep.OracleOK,
		}
		if rep.PerRankSec > 0 {
			row.speedup = rep.CentralSec / rep.PerRankSec
		}
		res.rows = append(res.rows, row)
	}
	return res, nil
}

// stage2Row is one rank count of the stage-2 decentralization sweep.
type stage2Row struct {
	ranks  int
	groups int
	boxes  int
	// stage1MS is the replicated stage-1 wall time (grouping + curve cut) —
	// paid identically by both modes, reported for context.
	stage1MS float64
	// replicatedUS is the per-rank wall time when stage 2 is replicated:
	// slice every group's segment and assemble the global assignment.
	replicatedUS float64
	// groupLocalUS is the decentralized per-rank cost: slice only the
	// rank's own group.
	groupLocalUS float64
	// speedup is ReplicatedUS over GroupLocalUS.
	speedup float64
	// oracleOK reports that assembling the per-group slices reproduced the
	// one-shot replicated Partition bit-for-bit.
	oracleOK bool
}

// Stage2Result is a weak-scaling study of the hierarchical partitioner's
// stage 2: how much per-rank decision cost disappears when each rank slices
// only its own group's curve segment (the group-parallel control plane)
// instead of replicating every group's slicing. Stage 1 stays replicated in
// both modes and is timed separately.
type Stage2Result struct {
	boxesPerRank int
	groupSize    int
	rows         []stage2Row
}

// WeakScalingStage2 runs the stage-2 sweep over the rank ladder
// 16..maxRanks with the same tiling and capacity script as WeakScaling.
func WeakScalingStage2(maxRanks, groupSize int) (*Stage2Result, error) {
	if maxRanks < 16 {
		maxRanks = 16
	}
	if groupSize < 1 {
		groupSize = 64
	}
	res := &Stage2Result{boxesPerRank: weakBoxesPerRank, groupSize: groupSize}
	for _, ranks := range []int{16, 64, 256, 1024, 4096} {
		if ranks > maxRanks {
			break
		}
		tiles := weakTiles(ranks)
		capsA, _ := weakCaps(ranks, groupSize)
		h := partition.NewHierarchical(2)
		h.GroupSize = groupSize
		t0 := time.Now()
		plan, err := h.PlanGroups(tiles, capsA, partition.CellWork)
		if err != nil {
			return nil, fmt.Errorf("exp: stage2 sweep %d ranks: %w", ranks, err)
		}
		stage1 := time.Since(t0)
		groups := plan.NumGroups()
		// Repeat the timed slicing enough times that the small rungs are
		// measurable; both modes use the same repeat count.
		reps := 1
		if ranks < 4096 {
			reps = 4096 / ranks
		}
		var assembled *partition.Assignment
		t0 = time.Now()
		for r := 0; r < reps; r++ {
			segs := make([]partition.GroupSegment, groups)
			for g := 0; g < groups; g++ {
				bx, ow := plan.PartitionGroup(g)
				segs[g] = partition.GroupSegment{Boxes: bx, Owners: ow}
			}
			if assembled, err = plan.Assemble(segs); err != nil {
				return nil, fmt.Errorf("exp: stage2 sweep %d ranks: %w", ranks, err)
			}
		}
		replicated := time.Since(t0)
		mid := plan.GroupOf(ranks / 2)
		t0 = time.Now()
		for r := 0; r < reps; r++ {
			if bx, _ := plan.PartitionGroup(mid); len(bx) == 0 {
				return nil, fmt.Errorf("exp: stage2 sweep %d ranks: empty group %d", ranks, mid)
			}
		}
		local := time.Since(t0)
		oracle, err := h.Partition(tiles, capsA, partition.CellWork)
		if err != nil {
			return nil, err
		}
		row := stage2Row{
			ranks:        ranks,
			groups:       groups,
			boxes:        len(assembled.Boxes),
			stage1MS:     stage1.Seconds() * 1e3,
			replicatedUS: replicated.Seconds() * 1e6 / float64(reps),
			groupLocalUS: local.Seconds() * 1e6 / float64(reps),
			oracleOK:     assignmentsIdentical(assembled, oracle),
		}
		if row.groupLocalUS > 0 {
			row.speedup = row.replicatedUS / row.groupLocalUS
		}
		res.rows = append(res.rows, row)
	}
	return res, nil
}

// assignmentsIdentical is a bitwise comparison: same boxes, owners, and
// float-exact work/ideal vectors.
func assignmentsIdentical(a, b *partition.Assignment) bool {
	if !a.Boxes.Equal(b.Boxes) || len(a.Owners) != len(b.Owners) {
		return false
	}
	for i := range a.Owners {
		if a.Owners[i] != b.Owners[i] {
			return false
		}
	}
	if len(a.Work) != len(b.Work) || len(a.Ideal) != len(b.Ideal) {
		return false
	}
	for i := range a.Work {
		if a.Work[i] != b.Work[i] || a.Ideal[i] != b.Ideal[i] {
			return false
		}
	}
	return true
}

// Render writes the stage-2 sweep table.
func (r *Stage2Result) Render(w io.Writer) error {
	tab := runlog.NewTable(
		fmt.Sprintf("Stage-2 slicing: replicated vs group-local (%d boxes/rank, groups of %d)",
			r.boxesPerRank, r.groupSize),
		"Ranks", "Groups", "Boxes", "Stage1 (ms)", "Replicated (µs)",
		"Group-local (µs)", "Speedup (×)", "Oracle")
	for _, row := range r.rows {
		oracle := "OK"
		if !row.oracleOK {
			oracle = "MISMATCH"
		}
		tab.AddF(row.ranks, row.groups, row.boxes, row.stage1MS,
			row.replicatedUS, row.groupLocalUS, row.speedup, oracle)
	}
	return tab.Render(w)
}

// WriteCSV emits the stage-2 sweep for artifact upload and plotting.
func (r *Stage2Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w,
		"ranks,groups,boxes,stage1_ms,replicated_us,grouplocal_us,speedup,oracle_ok"); err != nil {
		return err
	}
	for _, row := range r.rows {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%.4f,%.4f,%.4f,%.2f,%t\n",
			row.ranks, row.groups, row.boxes, row.stage1MS,
			row.replicatedUS, row.groupLocalUS, row.speedup, row.oracleOK); err != nil {
			return err
		}
	}
	return nil
}

// Render writes the weak-scaling table.
func (r *WeakScalingResult) Render(w io.Writer) error {
	tab := runlog.NewTable(
		fmt.Sprintf("Weak scaling of repartition plan construction (%d boxes/rank, hierarchical groups of %d)",
			r.boxesPerRank, r.groupSize),
		"Ranks", "Boxes", "Stage1 (ms)", "Per-rank plan (µs)", "Central (ms)",
		"Speedup (×)", "Full bcast (KB)", "Delta bcast (KB)", "Oracle")
	for _, row := range r.rows {
		oracle := "OK"
		if !row.oracleOK {
			oracle = "MISMATCH"
		}
		tab.AddF(row.ranks, row.boxes, row.stage1MS, row.perRankUS, row.centralMS,
			row.speedup, row.fullKB, row.deltaKB, oracle)
	}
	return tab.Render(w)
}

// WriteCSV emits the sweep for artifact upload and plotting.
func (r *WeakScalingResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w,
		"ranks,boxes,stage1_ms,per_rank_us,central_ms,speedup,full_kb,delta_kb,oracle_ok"); err != nil {
		return err
	}
	for _, row := range r.rows {
		if _, err := fmt.Fprintf(w, "%d,%d,%.4f,%.4f,%.4f,%.2f,%.3f,%.3f,%t\n",
			row.ranks, row.boxes, row.stage1MS, row.perRankUS, row.centralMS,
			row.speedup, row.fullKB, row.deltaKB, row.oracleOK); err != nil {
			return err
		}
	}
	return nil
}
