package exp

import (
	"fmt"
	"io"

	"samrpart/internal/cluster"
	"samrpart/internal/partition"
	"samrpart/internal/runlog"
)

// table3Row is one sensing frequency of the Table III sweep.
type table3Row struct {
	senseEvery int
	execSec    float64
	paperSec   float64
	trace      *runlog.RunTrace
}

// Table3Result reproduces Table III (execution time against sensing
// frequency on four processors) and Figures 12-15 (the per-regrid dynamic
// assignments at each frequency). The paper finds a sweet spot at 20
// iterations: sensing more often pays overhead without learning anything
// new; sensing less often reacts too late to the load dynamics.
type Table3Result struct {
	rows []table3Row
}

var paperTable3 = map[int]float64{10: 316, 20: 277, 30: 286, 40: 293}

// table3Iterations is the sweep's run length.
const table3Iterations = 280

// table3Loads alternates a heavy background job between two nodes in
// irregular windows of 40-70 virtual seconds (a few tens of iterations):
// stale capacities mis-assign up to a full window, but sensing much faster
// than the windows buys nothing beyond its cost — the tension that creates
// the paper's optimum at an intermediate frequency. The phase offset shifts
// the whole script so trials sample different alignments between sensing
// and load switches.
func table3Loads(phase float64) func(c *cluster.Cluster) {
	return func(c *cluster.Cluster) {
		// A heavy background job hops between nodes 0 and 1 in irregular
		// windows: a stale assignment parks ~30% of the work on a node
		// with 15% availability until the next sweep notices.
		windows := []float64{40, 60, 50, 70, 45, 55}
		start := -phase
		for w := 0; w < 24; w++ {
			node := w % 2
			dur := windows[w%len(windows)]
			c.Node(node).AddLoad(cluster.Step{
				Start: start,
				Stop:  start + dur,
				CPU:   0.6,
				MemMB: 120,
			})
			start += dur
		}
	}
}

// phaseShift offsets a load generator in time.
type phaseShift struct {
	offset float64
	gen    cluster.LoadGenerator
}

// CPULoad implements cluster.LoadGenerator.
func (p phaseShift) CPULoad(t float64) float64 { return p.gen.CPULoad(t + p.offset) }

// MemoryMB implements cluster.LoadGenerator.
func (p phaseShift) MemoryMB(t float64) float64 { return p.gen.MemoryMB(t + p.offset) }

// table3Phases are the load-script offsets averaged per frequency.
var table3Phases = []float64{0, 9, 18, 27, 36, 45}

// Table3 sweeps the sensing frequency.
func Table3() (*Table3Result, error) {
	res := &Table3Result{}
	for _, every := range []int{10, 20, 30, 40} {
		var sum float64
		var first *runlog.RunTrace
		for _, phase := range table3Phases {
			tr, err := run(runConfig{
				name:        fmt.Sprintf("sense-every-%d", every),
				nodes:       4,
				loads:       table3Loads(phase),
				partitioner: partition.NewHetero(),
				iterations:  table3Iterations,
				regridEvery: 5,
				senseEvery:  every,
			})
			if err != nil {
				return nil, err
			}
			sum += tr.ExecTime
			if first == nil {
				first = tr
			}
		}
		res.rows = append(res.rows, table3Row{
			senseEvery: every,
			execSec:    sum / float64(len(table3Phases)),
			paperSec:   paperTable3[every],
			trace:      first,
		})
	}
	return res, nil
}

// Render writes Table III and the Figure 12-15 assignment traces.
func (r *Table3Result) Render(w io.Writer) error {
	tab := runlog.NewTable(
		"Table III: execution time vs sensing frequency (4 processors)",
		"Sense every (iters)", "Execution time (measured s)", "Execution time (paper s)")
	for _, row := range r.rows {
		tab.AddF(row.senseEvery, row.execSec, row.paperSec)
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	for i, row := range r.rows {
		s := runlog.NewSeries(
			fmt.Sprintf("\nFigure %d: dynamic allocation, sensing every %d iterations",
				12+i, row.senseEvery),
			"Regrid", "Processor 0", "Processor 1", "Processor 2", "Processor 3")
		for j, rec := range row.trace.Records {
			s.Add(float64(j+1), rec.Work[0], rec.Work[1], rec.Work[2], rec.Work[3])
		}
		if err := s.Render(w); err != nil {
			return err
		}
	}
	return nil
}
