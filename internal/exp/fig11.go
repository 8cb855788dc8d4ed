package exp

import (
	"fmt"
	"io"

	"samrpart/internal/cluster"
	"samrpart/internal/partition"
	"samrpart/internal/runlog"
)

// Fig11Result reproduces Figure 11: dynamic load allocation by the
// system-sensitive partitioner when the system state is sensed once before
// the start and twice during the run, while a synthetic load generator
// varies the load on two of the four processors.
type Fig11Result struct {
	trace *runlog.RunTrace
}

// fig11Loads ramps background load up on processors 0 and 1 at different
// times during the run, the paper's "interesting load dynamics".
func fig11Loads(c *cluster.Cluster) {
	c.Node(0).AddLoad(cluster.Ramp{Start: 20, Rate: 0.01, Target: 0.65, MemTargetMB: 140})
	c.Node(1).AddLoad(cluster.Ramp{Start: 60, Rate: 0.015, Target: 0.5, MemTargetMB: 100})
}

// Fig11 runs 150 iterations (30 regrids at one regrid per 5 iterations)
// with sensing at iterations 50 and 100 plus the pre-start sweep.
func Fig11() (*Fig11Result, error) {
	tr, err := run(runConfig{
		name:        "fig11",
		nodes:       4,
		loads:       fig11Loads,
		partitioner: partition.NewHetero(),
		iterations:  150,
		regridEvery: 5,
		senseEvery:  50,
	})
	if err != nil {
		return nil, err
	}
	return &Fig11Result{trace: tr}, nil
}

// Render writes the per-regrid assignments, annotating the relative
// capacities whenever a sensing sweep refreshed them.
func (r *Fig11Result) Render(w io.Writer) error {
	s := runlog.NewSeries(
		"Figure 11: dynamic load allocation (sensing before start + twice during run)",
		"Regrid", "Processor 0", "Processor 1", "Processor 2", "Processor 3")
	var prev []float64
	var annotations []string
	for i, rec := range r.trace.Records {
		s.Add(float64(i+1), rec.Work[0], rec.Work[1], rec.Work[2], rec.Work[3])
		if prev == nil || !sameCaps(prev, rec.Caps) {
			annotations = append(annotations, fmt.Sprintf(
				"  regrid %d: capacities %.0f%% %.0f%% %.0f%% %.0f%%",
				i+1, rec.Caps[0]*100, rec.Caps[1]*100, rec.Caps[2]*100, rec.Caps[3]*100))
			prev = rec.Caps
		}
	}
	if err := s.Render(w); err != nil {
		return err
	}
	for _, a := range annotations {
		if _, err := fmt.Fprintln(w, a); err != nil {
			return err
		}
	}
	return nil
}

func sameCaps(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		d := a[i] - b[i]
		if d > 1e-12 || d < -1e-12 {
			return false
		}
	}
	return true
}
