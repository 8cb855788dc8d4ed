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

// runVariant executes the standard loaded 8-node workload with a custom
// engine configuration hook.
func runVariant(name string, mutate func(cfg *engine.Config)) (ablationRow, error) {
	clus, err := NewCluster(8)
	if err != nil {
		return ablationRow{}, err
	}
	PaperLoadScript(clus)
	cfg := engine.Config{
		Name:        name,
		Hierarchy:   RM3DHierarchy(),
		App:         engine.NewRM3DOracle(),
		Partitioner: partition.NewHetero(),
		Iterations:  100,
		RegridEvery: 5,
		SenseEvery:  20,
		Obs:         obsRT,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := engine.New(cfg, clus)
	if err != nil {
		return ablationRow{}, err
	}
	tr, err := e.Run()
	if err != nil {
		return ablationRow{}, err
	}
	return ablationRow{variant: name, execSec: tr.ExecTime, meanImb: tr.MeanMaxImbalance()}, nil
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
		w := v.w
		row, err := runVariant(v.name, func(cfg *engine.Config) { cfg.Weights = w })
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
		p := v.p
		row, err := runVariant(v.name, func(cfg *engine.Config) { cfg.Partitioner = p })
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
		row, err := runVariant("composite/"+curve.Name(), func(cfg *engine.Config) {
			cfg.Partitioner = p
		})
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
		fc := fc
		var sum float64
		for _, phase := range table3Phases[:3] {
			clus, err := NewCluster(4)
			if err != nil {
				return nil, err
			}
			table3Loads(phase)(clus)
			cfg := engine.Config{
				Name:        fc,
				Hierarchy:   RM3DHierarchy(),
				App:         engine.NewRM3DOracle(),
				Partitioner: partition.NewHetero(),
				Iterations:  table3Iterations,
				RegridEvery: 5,
				SenseEvery:  20,
				Forecaster:  fc,
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
		minSide := minSide
		hier := RM3DHierarchy()
		hier.Cluster.MinSide = minSide
		if hier.Cluster.MaxSide != 0 && hier.Cluster.MaxSide < 2*minSide {
			hier.Cluster.MaxSide = 2 * minSide
		}
		row, err := runVariant(fmt.Sprintf("min side %d", minSide), func(cfg *engine.Config) {
			cfg.Hierarchy = hier
			p := partition.NewHetero()
			p.Constraints.MinBoxSize = minSide
			cfg.Partitioner = p
		})
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
		v := v
		clus, err := NewCluster(4)
		if err != nil {
			return nil, err
		}
		// Memory hogs leave ~26 MB free on two nodes but burn no CPU; the
		// RM3D working set (~10-45 MB/node depending on shares) pages
		// there when the partitioner over-assigns.
		clus.Node(0).AddLoad(cluster.Step{CPU: 0.05, MemMB: 230})
		clus.Node(1).AddLoad(cluster.Step{CPU: 0.05, MemMB: 230})
		app := engine.NewRM3DOracle()
		app.Bytes = 320 // multi-field state + scratch buffers: heavy footprint
		cfg := engine.Config{
			Name:        v.name,
			Hierarchy:   RM3DHierarchy(),
			App:         app,
			Partitioner: partition.NewHetero(),
			Weights:     v.w,
			Iterations:  60,
			RegridEvery: 5,
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
		p := p
		clus, err := NewCluster(8)
		if err != nil {
			return nil, err
		}
		PaperLoadScript(clus)
		// Mild extra dynamics so capacities (and hence assignments)
		// actually change between senses.
		clus.Node(1).AddLoad(cluster.Sinusoid{Mean: 0.2, Amplitude: 0.2, Period: 60, MemMB: 50})
		cfg := engine.Config{
			Name:        p.Name(),
			Hierarchy:   RM3DHierarchy(),
			App:         engine.NewRM3DOracle(),
			Partitioner: p,
			Iterations:  100,
			RegridEvery: 5,
			SenseEvery:  20,
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
