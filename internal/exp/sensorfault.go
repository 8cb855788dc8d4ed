package exp

import (
	"io"

	"samrpart/internal/cluster"
	"samrpart/internal/monitor"
	"samrpart/internal/runlog"
)

// sensorFaultRow is one scenario of the degraded-sensing study.
type sensorFaultRow struct {
	scenario string
	execSec  float64
	// believedImb is the mean max-imbalance against the capacities the
	// engine believed; TrueImb measures the same assignments against the
	// ground-truth capacities. A run partitioning on garbage can look
	// balanced on the former while being far off on the latter.
	believedImb float64
	trueImb     float64
	senses      int
	senseFail   int
	// degraded is the number of probe readings that did not flow cleanly
	// into the capacity metric (timeouts, drops, panics, garbage, outliers).
	degraded int
	// fallbacks counts control-loop degradations (partitioner fallbacks and
	// kept-last-good events); Skipped counts hysteresis-suppressed
	// repartitions.
	fallbacks int
	skipped   int
}

// SensorFaultResult is the rendered study.
type SensorFaultResult struct {
	rows []sensorFaultRow
}

// defaultSensorFaultSpec afflicts a quarter of the cluster with the full
// fault mix: occasional timeouts and dropouts, frequent garbage values, and
// a chance of the sensor freezing outright.
func defaultSensorFaultSpec() monitor.ProbeFaultSpec {
	return monitor.ProbeFaultSpec{
		Seed:        17,
		Frac:        0.25,
		TimeoutProb: 0.15,
		DropProb:    0.15,
		GarbageProb: 0.3,
		FreezeProb:  0.02,
	}
}

// sensorFaultLoads applies time-varying background load so the capacity
// landscape drifts during the run: a static one-shot sensing goes stale and
// loses ground an adaptive run recovers — unless its sensors feed it
// garbage.
func sensorFaultLoads(c *cluster.Cluster) {
	c.Node(2).AddLoad(cluster.Ramp{Start: 0, Rate: 0.04, Target: 0.6, MemTargetMB: 120})
	c.Node(5).AddLoad(cluster.Ramp{Start: 0, Rate: 0.03, Target: 0.45, MemTargetMB: 80})
	c.Node(6).AddLoad(cluster.Step{Start: 0, CPU: 0.3, MemMB: 60})
}

// SensorFaults runs the degraded-sensing study: the same AMR workload on a
// drifting-load cluster, with a quarter of the sensors injecting faults, under
// four policies — fault-free adaptive (reference), static (senses once),
// naive adaptive (trusts every reading), and hygiene adaptive (health
// tracking, sanitization, MAD rejection, staleness decay, masked capacities,
// validated assignments). A nil spec uses DefaultSensorFaultSpec; threshold
// sets the hygiene run's repartition hysteresis (0 = repartition on every
// sense).
func SensorFaults(iters int, spec *monitor.ProbeFaultSpec, threshold float64) (*SensorFaultResult, error) {
	s := defaultSensorFaultSpec()
	if spec != nil {
		s = *spec
	}
	scenarios := []struct {
		name       string
		senseEvery int
		faults     bool
		hygiene    bool
		threshold  float64
	}{
		{"fault-free adaptive", 5, false, false, 0},
		{"faulty sensors, static", 0, true, false, 0},
		{"faulty sensors, naive adaptive", 5, true, false, 0},
		{"faulty sensors, hygiene adaptive", 5, true, true, threshold},
	}
	res := &SensorFaultResult{}
	for _, sc := range scenarios {
		cfg := paperConfig("sensorfault/"+sc.name, iters)
		cfg.SenseEvery = sc.senseEvery
		cfg.RepartitionThreshold = sc.threshold
		if sc.faults {
			cfg.SensorFaults = &s
		}
		cfg.Hygiene = sc.hygiene
		tr, err := run(cfg, workstations(8), sensorFaultLoads)
		if err != nil {
			return nil, err
		}
		res.rows = append(res.rows, sensorFaultRow{
			scenario:    sc.name,
			execSec:     tr.ExecTime,
			believedImb: tr.MeanMaxImbalance(),
			trueImb:     tr.MeanTrueMaxImbalance(),
			senses:      tr.Senses,
			senseFail:   tr.SenseFailures,
			degraded:    tr.Sensor.Degradations(),
			fallbacks:   tr.Degraded.Total(),
			skipped:     tr.RepartitionsSkipped,
		})
	}
	return res, nil
}

// Render writes the study table.
func (r *SensorFaultResult) Render(w io.Writer) error {
	tab := runlog.NewTable(
		"Degraded sensing: repartitioning quality with faulty sensors (imbalance vs believed and true capacities)",
		"Scenario", "Exec (s)", "Believed imb (%)", "True imb (%)",
		"Senses", "Sense fail", "Degraded probes", "Fallbacks", "Skipped")
	for _, row := range r.rows {
		tab.AddF(row.scenario, row.execSec, row.believedImb, row.trueImb,
			row.senses, row.senseFail, row.degraded, row.fallbacks, row.skipped)
	}
	return tab.Render(w)
}
