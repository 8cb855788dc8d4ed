package engine

import (
	"math"
	"testing"

	"samrpart/internal/cluster"
	"samrpart/internal/monitor"
	"samrpart/internal/runlog"
)

// sensorFaultSpec afflicts a quarter of the cluster with every fault kind.
func sensorFaultSpec() *monitor.ProbeFaultSpec {
	return &monitor.ProbeFaultSpec{
		Seed:        17,
		Frac:        0.25,
		TimeoutProb: 0.15,
		DropProb:    0.15,
		GarbageProb: 0.3,
		FreezeProb:  0.02,
	}
}

func faultedRun(t *testing.T, hygiene bool) *runlog.RunTrace {
	t.Helper()
	clus := newCluster(t, 8)
	// Background load so the true capacities are non-uniform and a garbage
	// or zeroed reading visibly mis-partitions against the truth.
	clus.Node(2).AddLoad(cluster.Ramp{Start: 0, Rate: 0.05, Target: 0.5, MemTargetMB: 100})
	clus.Node(5).AddLoad(cluster.Step{Start: 0, CPU: 0.3, MemMB: 50})
	cfg := baseConfig()
	cfg.Iterations = 40
	cfg.SenseEvery = 2
	cfg.SensorFaults = sensorFaultSpec()
	if hygiene {
		cfg.Hygiene = true
	}
	e, err := New(cfg, clus)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Run()
	if err != nil {
		t.Fatalf("hygiene=%v: Run err = %v", hygiene, err)
	}
	if e.assign == nil || len(e.assign.Boxes) == 0 {
		t.Fatalf("hygiene=%v: no valid final assignment", hygiene)
	}
	return tr
}

func TestEngineSurvivesSensorFaults(t *testing.T) {
	tr := faultedRun(t, true)
	if tr.Sensor.Degradations() == 0 {
		t.Fatal("fault injector produced no degraded probes")
	}
	if len(tr.Records) == 0 {
		t.Fatal("no assignments recorded")
	}
	// Every adopted capacity vector must be finite, non-negative and
	// normalized — garbage must never reach the partitioner.
	for i, r := range tr.Records {
		sum := 0.0
		for k, c := range r.Caps {
			if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
				t.Fatalf("record %d: capacity[%d] = %v", i, k, c)
			}
			sum += c
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("record %d: capacities sum to %v", i, sum)
		}
		if r.Boxes == 0 {
			t.Errorf("record %d: empty assignment adopted", i)
		}
	}
}

func TestEngineHygieneBeatsNaiveUnderSensorFaults(t *testing.T) {
	hygienic := faultedRun(t, true)
	naive := faultedRun(t, false)
	hi, ni := hygienic.MeanTrueMaxImbalance(), naive.MeanTrueMaxImbalance()
	if math.IsNaN(hi) || math.IsNaN(ni) {
		t.Fatalf("true imbalance unavailable: hygiene=%v naive=%v", hi, ni)
	}
	if hi >= ni {
		t.Errorf("hygiene mean true imbalance %.2f%% not below naive %.2f%%", hi, ni)
	}
}

func TestEngineSensorFaultsDeterministic(t *testing.T) {
	a := faultedRun(t, true)
	b := faultedRun(t, true)
	if a.ExecTime != b.ExecTime || len(a.Records) != len(b.Records) {
		t.Fatalf("runs diverged: exec %v vs %v, records %d vs %d",
			a.ExecTime, b.ExecTime, len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		for k := range a.Records[i].Caps {
			if a.Records[i].Caps[k] != b.Records[i].Caps[k] {
				t.Fatalf("record %d capacity %d diverged", i, k)
			}
		}
	}
	if a.Sensor != b.Sensor {
		t.Errorf("sensor counters diverged: %+v vs %+v", a.Sensor, b.Sensor)
	}
}

// jitteryRun executes on a balanced cluster whose nodes all carry the same
// mean load with uncorrelated per-node jitter: repartitioning on every sense
// is churn with nothing to gain.
func jitteryRun(t *testing.T, threshold float64) *runlog.RunTrace {
	t.Helper()
	clus := newCluster(t, 4)
	for k := 0; k < clus.NumNodes(); k++ {
		clus.Node(k).AddLoad(cluster.Noise{Seed: int64(k + 1), Mean: 0.3, Amplitude: 0.12, SlotSec: 0.5})
	}
	cfg := baseConfig()
	cfg.Iterations = 40
	cfg.SenseEvery = 1
	cfg.RegridEvery = 20
	cfg.RepartitionThreshold = threshold
	e, err := New(cfg, clus)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestEngineRepartitionHysteresis(t *testing.T) {
	always := jitteryRun(t, 0)
	damped := jitteryRun(t, 15)
	if always.RepartitionsSkipped != 0 {
		t.Errorf("threshold 0 skipped %d repartitions", always.RepartitionsSkipped)
	}
	if damped.RepartitionsSkipped == 0 {
		t.Error("threshold 15 skipped nothing on a jittery-balanced trace")
	}
	if damped.Repartitions >= always.Repartitions {
		t.Errorf("repartitions with threshold = %d, want strictly fewer than %d",
			damped.Repartitions, always.Repartitions)
	}
	// The imbalance the guard tolerates stays bounded: skipping must not let
	// the assignment drift arbitrarily far from ideal.
	if mi := damped.MeanMaxImbalance(); mi > 3*always.MeanMaxImbalance()+15 {
		t.Errorf("damped mean imbalance %.2f%% drifted far beyond always-repartition %.2f%%",
			mi, always.MeanMaxImbalance())
	}
}
