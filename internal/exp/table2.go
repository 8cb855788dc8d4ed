package exp

import (
	"io"

	"samrpart/internal/cluster"
	"samrpart/internal/runlog"
)

// table2Row is one cluster size of the dynamic-vs-static sensing
// comparison.
type table2Row struct {
	nodes      int
	dynamicSec float64
	staticSec  float64
	// Paper values for reference.
	paperDynamicSec, paperStaticSec float64
}

// Table2Result reproduces Table II: execution time with dynamic sensing
// (every 40 iterations) against sensing only once before the start, while
// background load ramps up during the run.
type Table2Result struct {
	rows []table2Row
}

var paperTable2 = map[int][2]float64{
	2: {423.7, 805.5},
	4: {292.0, 450.0},
	6: {272.0, 442.0},
	8: {225.0, 430.0},
}

// table2Iterations is the run length; the ramps reach their plateaus in the
// first half of the run.
const table2Iterations = 200

// table2Loads ramps heavy load onto half the nodes shortly after the
// static configuration has taken its only measurement, so a sense-once run
// keeps distributing as if the cluster were idle.
func table2Loads(c *cluster.Cluster) {
	for k := 0; k < c.NumNodes(); k += 2 {
		start := 5 + 10*float64(k/2)
		c.Node(k).AddLoad(cluster.Ramp{
			Start:       start,
			Rate:        0.025,
			Target:      0.8,
			MemTargetMB: 170,
		})
	}
}

// Table2 runs P in {2, 4, 6, 8} with both sensing policies.
func Table2() (*Table2Result, error) {
	res := &Table2Result{}
	for _, nodes := range []int{2, 4, 6, 8} {
		cfg := paperConfig("dynamic", table2Iterations)
		cfg.SenseEvery = 40
		dyn, err := run(cfg, workstations(nodes), table2Loads)
		if err != nil {
			return nil, err
		}
		st, err := run(paperConfig("static", table2Iterations), workstations(nodes), table2Loads)
		if err != nil {
			return nil, err
		}
		paper := paperTable2[nodes]
		res.rows = append(res.rows, table2Row{
			nodes:           nodes,
			dynamicSec:      dyn.ExecTime,
			staticSec:       st.ExecTime,
			paperDynamicSec: paper[0],
			paperStaticSec:  paper[1],
		})
	}
	return res, nil
}

// Render writes the comparison table.
func (r *Table2Result) Render(w io.Writer) error {
	tab := runlog.NewTable(
		"Table II: execution time, dynamic sensing vs sensing once (s)",
		"Processors", "Dynamic (measured)", "Once (measured)",
		"Dynamic (paper)", "Once (paper)")
	for _, row := range r.rows {
		tab.AddF(row.nodes, row.dynamicSec, row.staticSec,
			row.paperDynamicSec, row.paperStaticSec)
	}
	return tab.Render(w)
}
