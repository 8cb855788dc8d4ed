package exp

import (
	"io"

	"samrpart/internal/partition"
	"samrpart/internal/runlog"
)

// scalabilityRow is one cluster size of the scaling study.
type scalabilityRow struct {
	nodes      int
	execSec    float64
	speedup    float64
	efficiency float64
}

// ScalabilityResult is a strong-scaling study of the runtime on an
// *unloaded* cluster: the same RM3D workload on P = 1..32 identical idle
// nodes. It isolates the parallelization overheads (ghost communication,
// sensing, regridding) from the heterogeneity effects the paper studies —
// the "enabling scalable parallel implementations" context of the GrACE
// line of work.
type ScalabilityResult struct {
	rows []scalabilityRow
}

// Scalability runs the strong-scaling sweep.
func Scalability() (*ScalabilityResult, error) {
	res := &ScalabilityResult{}
	var t1 float64
	for _, nodes := range []int{1, 2, 4, 8, 16, 32} {
		tr, err := run(runConfig{
			name:        "scaling",
			nodes:       nodes,
			partitioner: partition.NewSFCHetero(2),
			iterations:  100,
			regridEvery: 5,
		})
		if err != nil {
			return nil, err
		}
		if nodes == 1 {
			t1 = tr.ExecTime
		}
		row := scalabilityRow{nodes: nodes, execSec: tr.ExecTime}
		if tr.ExecTime > 0 {
			row.speedup = t1 / tr.ExecTime
			row.efficiency = row.speedup / float64(nodes)
		}
		res.rows = append(res.rows, row)
	}
	return res, nil
}

// Render writes the scaling table.
func (r *ScalabilityResult) Render(w io.Writer) error {
	tab := runlog.NewTable(
		"Strong scaling on an idle homogeneous cluster (RM3D workload)",
		"P", "Exec time (s)", "Speedup", "Parallel efficiency")
	for _, row := range r.rows {
		tab.AddF(row.nodes, row.execSec, row.speedup, row.efficiency)
	}
	return tab.Render(w)
}
