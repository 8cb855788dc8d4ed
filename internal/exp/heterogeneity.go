package exp

import (
	"io"

	"samrpart/internal/cluster"
	"samrpart/internal/partition"
	"samrpart/internal/runlog"
)

// heterogeneityRow is one skew level of the heterogeneity sweep.
type heterogeneityRow struct {
	// loadTarget is the background CPU load on the loaded half of the
	// cluster (0 = homogeneous).
	loadTarget     float64
	heteroSec      float64
	defaultSec     float64
	improvementPct float64
}

// HeterogeneityResult tests the paper's central expectation directly: "we
// believe the improvement will be more significant in the case of ...
// greater heterogeneity and load dynamics". Half of an 8-node cluster
// carries background load swept from 0% to 80%; the system-sensitive
// partitioner's advantage over the default must grow with the skew.
type HeterogeneityResult struct {
	rows []heterogeneityRow
}

// HeterogeneitySweep runs the sweep.
func HeterogeneitySweep() (*HeterogeneityResult, error) {
	res := &HeterogeneityResult{}
	for _, target := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
		target := target
		loads := func(c *cluster.Cluster) {
			if target == 0 {
				return
			}
			for k := 0; k < c.NumNodes(); k += 2 {
				c.Node(k).AddLoad(cluster.Step{CPU: target, MemMB: 200 * target})
			}
		}
		ht, err := run(runConfig{
			name:        "hetero",
			nodes:       8,
			loads:       loads,
			partitioner: partition.NewHetero(),
			iterations:  100,
			regridEvery: 5,
		})
		if err != nil {
			return nil, err
		}
		dt, err := run(runConfig{
			name:        "default",
			nodes:       8,
			loads:       loads,
			partitioner: partition.NewComposite(2),
			iterations:  100,
			regridEvery: 5,
		})
		if err != nil {
			return nil, err
		}
		res.rows = append(res.rows, heterogeneityRow{
			loadTarget:     target,
			heteroSec:      ht.ExecTime,
			defaultSec:     dt.ExecTime,
			improvementPct: (dt.ExecTime - ht.ExecTime) / dt.ExecTime * 100,
		})
	}
	return res, nil
}

// Render writes the sweep table.
func (r *HeterogeneityResult) Render(w io.Writer) error {
	tab := runlog.NewTable(
		"Improvement vs degree of heterogeneity (8 nodes, half loaded)",
		"Background load", "Hetero (s)", "Default (s)", "Improvement (%)")
	for _, row := range r.rows {
		tab.AddF(row.loadTarget, row.heteroSec, row.defaultSec, row.improvementPct)
	}
	return tab.Render(w)
}
