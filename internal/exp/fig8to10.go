package exp

import (
	"fmt"
	"io"

	"samrpart/internal/amr"
	"samrpart/internal/cluster"
	"samrpart/internal/partition"
	"samrpart/internal/runlog"
)

// Fig8to10Result reproduces Figures 8, 9 and 10: per-regrid work-load
// assignments under the default (Fig 8) and system-sensitive (Fig 9)
// partitioners with relative capacities fixed at 16/19/31/34%, and the
// resulting per-regrid load imbalance of both schemes (Fig 10).
type Fig8to10Result struct {
	caps      []float64
	hetero    *runlog.RunTrace
	composite *runlog.RunTrace
}

// fig810Hierarchy coarsens the clustering granularity relative to the
// Fig 7 runs: bigger minimum boxes make the splitting constraints bind, so
// the residual imbalance the paper attributes to them (up to ~40%) is
// visible.
func fig810Hierarchy() amr.Config {
	h := RM3DHierarchy()
	h.Cluster.MinSide = 16
	h.Cluster.MaxSide = 0
	return h
}

// Fig8to10 runs both partitioners for 8 regrids (regrid every 5
// iterations) at the paper's fixed capacities.
func Fig8to10() (*Fig8to10Result, error) {
	caps := paperCapacities()
	hier := fig810Hierarchy()
	mkRun := func(name string, p partition.Partitioner) (*runlog.RunTrace, error) {
		return run(runConfig{
			name:  name,
			nodes: 4,
			loads: func(c *cluster.Cluster) {
				if err := fixedCapacityLoads(c, caps); err != nil {
					panic(err)
				}
			},
			partitioner: p,
			iterations:  40,
			regridEvery: 5,
			hierarchy:   &hier,
		})
	}
	hp := partition.NewHetero()
	hp.Constraints.MinBoxSize = 24
	dp := partition.NewComposite(2)
	dp.Constraints.MinBoxSize = 24
	ht, err := mkRun("ACEHeterogeneous", hp)
	if err != nil {
		return nil, err
	}
	dt, err := mkRun("ACEComposite", dp)
	if err != nil {
		return nil, err
	}
	return &Fig8to10Result{caps: caps, hetero: ht, composite: dt}, nil
}

// Render writes the three figures as data tables.
func (r *Fig8to10Result) Render(w io.Writer) error {
	renderAssignments := func(title string, tr *runlog.RunTrace) error {
		s := runlog.NewSeries(title, "Regrid",
			"Processor 0", "Processor 1", "Processor 2", "Processor 3")
		for _, rec := range tr.Records {
			s.Add(float64(rec.Regrid), rec.Work[0], rec.Work[1], rec.Work[2], rec.Work[3])
		}
		return s.Render(w)
	}
	if _, err := fmt.Fprintf(w, "Relative capacities: %.0f%% %.0f%% %.0f%% %.0f%%\n\n",
		r.caps[0]*100, r.caps[1]*100, r.caps[2]*100, r.caps[3]*100); err != nil {
		return err
	}
	if err := renderAssignments(
		"Figure 8: work-load assignment, default partitioner (ACEComposite)", r.composite); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	if err := renderAssignments(
		"Figure 9: work-load assignment, system-sensitive partitioner (ACEHeterogeneous)", r.hetero); err != nil {
		return err
	}
	imb := runlog.NewSeries(
		"\nFigure 10: max load imbalance per regrid (%)",
		"Regrid", "non system-sensitive", "system-sensitive")
	for i := range r.composite.Records {
		imb.Add(float64(i+1),
			r.composite.Records[i].MaxImbalance(),
			r.hetero.Records[i].MaxImbalance())
	}
	return imb.Render(w)
}
