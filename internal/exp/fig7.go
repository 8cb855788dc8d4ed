package exp

import (
	"io"

	"samrpart/internal/runlog"
)

// fig7Row is one cluster size of the Figure 7 / Table I experiment.
type fig7Row struct {
	nodes          int
	heteroSec      float64
	defaultSec     float64
	improvementPct float64
	// paperImprovementPct is the paper's reported value for the row.
	paperImprovementPct float64
}

// Fig7Result reproduces Figure 7 (total execution time, system-sensitive vs
// default partitioner) and Table I (percentage improvement) for
// P = 4, 8, 16, 32.
type Fig7Result struct {
	rows []fig7Row
}

// fig7Iterations is the run length used for the execution-time comparison.
const fig7Iterations = 200

// paperTable1 is Table I of the paper.
var paperTable1 = map[int]float64{4: 7, 8: 6, 16: 18, 32: 18}

// Fig7TableI runs the headline experiment: the RM3D workload on loaded
// clusters of 4..32 nodes, system state sensed once before the start (as in
// the paper's Figure 7 runs), comparing ACEHeterogeneous against the GrACE
// default.
func Fig7TableI() (*Fig7Result, error) {
	res := &Fig7Result{}
	for _, nodes := range []int{4, 8, 16, 32} {
		ht, dt, err := versusDefault(paperConfig("hetero", fig7Iterations), workstations(nodes), PaperLoadScript)
		if err != nil {
			return nil, err
		}
		res.rows = append(res.rows, fig7Row{
			nodes:               nodes,
			heteroSec:           ht.ExecTime,
			defaultSec:          dt.ExecTime,
			improvementPct:      (dt.ExecTime - ht.ExecTime) / dt.ExecTime * 100,
			paperImprovementPct: paperTable1[nodes],
		})
	}
	return res, nil
}

// Render writes the Figure 7 series and Table I comparison.
func (r *Fig7Result) Render(w io.Writer) error {
	fig := runlog.NewSeries(
		"Figure 7: application execution time (s), RM3D kernel",
		"P", "system-sensitive", "default")
	for _, row := range r.rows {
		fig.Add(float64(row.nodes), row.heteroSec, row.defaultSec)
	}
	if err := fig.Render(w); err != nil {
		return err
	}
	tab := runlog.NewTable(
		"\nTable I: improvement of the system-sensitive partitioner",
		"Processors", "Improvement (measured)", "Improvement (paper)")
	for _, row := range r.rows {
		tab.AddF(row.nodes, row.improvementPct, row.paperImprovementPct)
	}
	return tab.Render(w)
}
