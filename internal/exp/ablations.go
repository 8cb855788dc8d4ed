package exp

import (
	"fmt"
	"io"

	"samrpart/internal/capacity"
	"samrpart/internal/cluster"
	"samrpart/internal/engine"
	"samrpart/internal/partition"
	"samrpart/internal/runlog"
	"samrpart/internal/sfc"
)

// ablationRow is one variant of an ablation sweep.
type ablationRow struct {
	variant string
	execSec float64
	meanImb float64
	movedMB float64
	commSec float64
	hasComm bool
}

// AblationResult is a labelled set of variants.
type AblationResult struct {
	title string
	rows  []ablationRow
}

// Render writes the ablation table.
func (r *AblationResult) Render(w io.Writer) error {
	if len(r.rows) > 0 && r.rows[0].hasComm {
		tab := runlog.NewTable(r.title,
			"Variant", "Exec time (s)", "Mean max imbalance (%)", "Comm (s)", "Redistributed (MB)")
		for _, row := range r.rows {
			tab.AddF(row.variant, row.execSec, row.meanImb, row.commSec, row.movedMB)
		}
		return tab.Render(w)
	}
	tab := runlog.NewTable(r.title, "Variant", "Exec time (s)", "Mean max imbalance (%)")
	for _, row := range r.rows {
		tab.AddF(row.variant, row.execSec, row.meanImb)
	}
	return tab.Render(w)
}

// variantConfig is the ablations' standard run: the paper's workload for
// 100 iterations, sensing every 20.
func variantConfig(name string) engine.Config {
	cfg := paperConfig(name, 100)
	cfg.SenseEvery = 20
	return cfg
}

// runVariant executes cfg on the standard loaded 8-node cluster.
func runVariant(cfg engine.Config) (ablationRow, error) {
	tr, err := run(cfg, workstations(8), PaperLoadScript)
	if err != nil {
		return ablationRow{}, err
	}
	return ablationRow{variant: cfg.Name, execSec: tr.ExecTime, meanImb: tr.MeanMaxImbalance()}, nil
}

// AblationWeights compares capacity-weight presets (§8: the weights should
// reflect the application's resource demands).
func AblationWeights() (*AblationResult, error) {
	res := &AblationResult{title: "Ablation: capacity weights (w_p, w_m, w_b)"}
	variants := []struct {
		name string
		w    capacity.Weights
	}{
		{"equal (1/3,1/3,1/3)", capacity.EqualWeights()},
		{"compute-biased (.6,.2,.2)", capacity.ComputeBiased()},
		{"memory-biased (.2,.6,.2)", capacity.MemoryBiased()},
		{"comm-biased (.2,.2,.6)", capacity.CommBiased()},
	}
	for _, v := range variants {
		cfg := variantConfig(v.name)
		cfg.Weights = v.w
		row, err := runVariant(cfg)
		if err != nil {
			return nil, err
		}
		res.rows = append(res.rows, row)
	}
	return res, nil
}

// AblationSplitting compares the §5.3 splitting constraints: the paper's
// longest-axis rule, the §8 any-axis extension, a large minimum box size,
// and no splitting at all (greedy assignment).
func AblationSplitting() (*AblationResult, error) {
	res := &AblationResult{title: "Ablation: box-splitting constraints"}
	variants := []struct {
		name string
		p    partition.Partitioner
	}{
		{"longest-axis, min 4 (paper)", partition.NewHetero()},
		{"any-axis, min 4 (§8 proposal)", func() partition.Partitioner {
			p := partition.NewHetero()
			p.Constraints.SplitAllAxes = true
			return p
		}()},
		{"longest-axis, min 16", func() partition.Partitioner {
			p := partition.NewHetero()
			p.Constraints.MinBoxSize = 16
			return p
		}()},
		{"no splitting (greedy LPT)", partition.Greedy{}},
	}
	for _, v := range variants {
		cfg := variantConfig(v.name)
		cfg.Partitioner = v.p
		row, err := runVariant(cfg)
		if err != nil {
			return nil, err
		}
		res.rows = append(res.rows, row)
	}
	return res, nil
}

// AblationSFC compares the space-filling curve behind the default composite
// partitioner (Hilbert vs Morton ordering), measuring the locality effect
// on communication time.
func AblationSFC() (*AblationResult, error) {
	res := &AblationResult{title: "Ablation: SFC choice for the composite baseline"}
	for _, curve := range []sfc.Curve{sfc.Hilbert{}, sfc.Morton{}} {
		p := partition.NewComposite(2)
		p.Curve = curve
		cfg := variantConfig("composite/" + curve.Name())
		cfg.Partitioner = p
		row, err := runVariant(cfg)
		if err != nil {
			return nil, err
		}
		res.rows = append(res.rows, row)
	}
	return res, nil
}

// AblationForecaster compares monitor forecasters under the Table III load
// dynamics: predicting the *current* state (last value) against smoothing
// predictors, at a fixed sensing frequency.
func AblationForecaster() (*AblationResult, error) {
	res := &AblationResult{title: "Ablation: monitor forecaster (Table III dynamics)"}
	for _, fc := range []string{"last", "mean", "median", "ewma", "adaptive"} {
		var sum float64
		for _, phase := range table3Phases[:3] {
			cfg := paperConfig(fc, table3Iterations)
			cfg.SenseEvery = 20
			cfg.Forecaster = fc
			tr, err := run(cfg, workstations(4), table3Loads(phase))
			if err != nil {
				return nil, err
			}
			sum += tr.ExecTime
		}
		res.rows = append(res.rows, ablationRow{variant: fc, execSec: sum / 3})
	}
	return res, nil
}

// AblationGranularity sweeps the clustering minimum box side, the knob
// controlling the tension between partitioning precision (small boxes) and
// bounded overheads (big boxes) — the granularity discussion of §5.3 / §7.
func AblationGranularity() (*AblationResult, error) {
	res := &AblationResult{title: "Ablation: clustering granularity (min box side)"}
	for _, minSide := range []int{4, 8, 16} {
		cfg := variantConfig(fmt.Sprintf("min side %d", minSide))
		cfg.Hierarchy.Cluster.MinSide = minSide
		if cfg.Hierarchy.Cluster.MaxSide != 0 && cfg.Hierarchy.Cluster.MaxSide < 2*minSide {
			cfg.Hierarchy.Cluster.MaxSide = 2 * minSide
		}
		p := partition.NewHetero()
		p.Constraints.MinBoxSize = minSide
		cfg.Partitioner = p
		row, err := runVariant(cfg)
		if err != nil {
			return nil, err
		}
		res.rows = append(res.rows, row)
	}
	return res, nil
}

// AblationMemoryWeights demonstrates §8's weight-selection guidance on a
// memory-constrained cluster: half the nodes have most of their memory
// consumed by a resident background job, so work assigned beyond their free
// memory pages (cluster.ComputeTimeMem). CPU-biased weights overload those
// nodes into thrashing; memory-biased weights route work away from them.
func AblationMemoryWeights() (*AblationResult, error) {
	res := &AblationResult{title: "Ablation: capacity weights on a memory-constrained cluster"}
	variants := []struct {
		name string
		w    capacity.Weights
	}{
		{"compute-biased (.6,.2,.2)", capacity.ComputeBiased()},
		{"equal (1/3,1/3,1/3)", capacity.EqualWeights()},
		{"memory-biased (.2,.6,.2)", capacity.MemoryBiased()},
	}
	for _, v := range variants {
		app := engine.NewRM3DOracle()
		app.Bytes = 320 // multi-field state + scratch buffers: heavy footprint
		cfg := paperConfig(v.name, 60)
		cfg.App = app
		cfg.Weights = v.w
		// Memory hogs leave ~26 MB free on two nodes but burn no CPU; the
		// RM3D working set (~10-45 MB/node depending on shares) pages
		// there when the partitioner over-assigns.
		tr, err := run(cfg, workstations(4), func(c *cluster.Cluster) {
			c.Node(0).AddLoad(cluster.Step{CPU: 0.05, MemMB: 230})
			c.Node(1).AddLoad(cluster.Step{CPU: 0.05, MemMB: 230})
		})
		if err != nil {
			return nil, err
		}
		res.rows = append(res.rows, ablationRow{
			variant: v.name,
			execSec: tr.ExecTime,
			meanImb: tr.MeanMaxImbalance(),
		})
	}
	return res, nil
}

// AblationLocality compares the partitioner family on the locality axis:
// ACEHeterogeneous (size-sorted, best balance, no box affinity between
// repartitions), SFCHetero (curve-ordered with capacity quotas: locality
// AND system sensitivity), LevelWise (per-level balance, poor inter-level
// locality) and the capacity-oblivious composite. Sensing every 20
// iterations forces repeated repartitions so redistribution volume shows.
func AblationLocality() (*AblationResult, error) {
	res := &AblationResult{title: "Ablation: partitioner locality vs balance"}
	variants := []partition.Partitioner{
		partition.NewHetero(),
		partition.NewSFCHetero(2),
		partition.NewLevelWise(2),
		partition.NewComposite(2),
	}
	for _, p := range variants {
		cfg := variantConfig(p.Name())
		cfg.Partitioner = p
		tr, err := run(cfg, workstations(8), func(c *cluster.Cluster) {
			PaperLoadScript(c)
			// Mild extra dynamics so capacities (and hence assignments)
			// actually change between senses.
			c.Node(1).AddLoad(cluster.Sinusoid{Mean: 0.2, Amplitude: 0.2, Period: 60, MemMB: 50})
		})
		if err != nil {
			return nil, err
		}
		res.rows = append(res.rows, ablationRow{
			variant: p.Name(),
			execSec: tr.ExecTime,
			meanImb: tr.MeanMaxImbalance(),
			commSec: tr.CommTime,
			movedMB: tr.MovedBytes / 1e6,
			hasComm: true,
		})
	}
	return res, nil
}

// compile-time interface check for the phase-shifting load wrapper.
var _ cluster.LoadGenerator = phaseShift{}
