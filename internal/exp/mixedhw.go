package exp

import (
	"io"

	"samrpart/internal/cluster"
	"samrpart/internal/engine"
	"samrpart/internal/partition"
	"samrpart/internal/runlog"
)

// MixedHardwareResult covers the other axis of heterogeneity the paper's
// title promises: *hardware* heterogeneity. The cluster mixes two
// workstation generations — full-speed nodes and half-speed, half-memory
// ones — with no background load at all, so the capacity skew is static and
// purely architectural. The system-sensitive partitioner must discover it
// through the same sensing path (relative CPU availability never differs;
// the monitor reports absolute speed through the effective measurements).
type MixedHardwareResult struct {
	heteroSec      float64
	defaultSec     float64
	improvementPct float64
	caps           []float64
}

// oldWorkstation is the previous hardware generation: half the speed and
// memory of cluster.LinuxWorkstation, same network.
func oldWorkstation() cluster.NodeSpec {
	return cluster.NodeSpec{SpeedMFlops: 150, MemoryMB: 128, BandwidthMBps: 12.5}
}

// MixedHardware runs the RM3D workload on 8 nodes: 4 current-generation and
// 4 previous-generation machines.
func MixedHardware() (*MixedHardwareResult, error) {
	specs := cluster.Uniform(8, cluster.LinuxWorkstation())
	for k := 4; k < 8; k++ {
		old := oldWorkstation()
		old.Name = specs[k].Name
		specs[k] = old
	}
	runOne := func(p partition.Partitioner) (*runlog.RunTrace, []float64, error) {
		clus, err := cluster.New(specs, cluster.DefaultParams())
		if err != nil {
			return nil, nil, err
		}
		// CPU *availability* is 1.0 on every idle node; hardware speed
		// enters through monitor.ClusterProber, which scales availability
		// by the node's benchmark speed relative to the fastest machine.
		e, err := engine.New(engine.Config{
			Name:        "mixed-hw/" + p.Name(),
			Hierarchy:   RM3DHierarchy(),
			App:         engine.NewRM3DOracle(),
			Partitioner: p,
			Iterations:  100,
			RegridEvery: 5,
			Obs:         obsRT,
		}, clus)
		if err != nil {
			return nil, nil, err
		}
		tr, err := e.Run()
		if err != nil {
			return nil, nil, err
		}
		return tr, e.Capacities(), nil
	}
	ht, caps, err := runOne(partition.NewHetero())
	if err != nil {
		return nil, err
	}
	dt, _, err := runOne(partition.NewComposite(2))
	if err != nil {
		return nil, err
	}
	return &MixedHardwareResult{
		heteroSec:      ht.ExecTime,
		defaultSec:     dt.ExecTime,
		improvementPct: (dt.ExecTime - ht.ExecTime) / dt.ExecTime * 100,
		caps:           caps,
	}, nil
}

// Render writes the comparison.
func (r *MixedHardwareResult) Render(w io.Writer) error {
	tab := runlog.NewTable(
		"Mixed hardware generations (4 fast + 4 half-speed nodes, no load)",
		"Partitioner", "Exec time (s)")
	tab.AddF("system-sensitive", r.heteroSec)
	tab.AddF("default", r.defaultSec)
	tab.AddF("improvement (%)", r.improvementPct)
	return tab.Render(w)
}
