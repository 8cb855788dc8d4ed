package monitor

import (
	"math"
	"testing"

	"samrpart/internal/capacity"
	"samrpart/internal/cluster"
)

func feed(f Forecaster, values ...float64) {
	for i, v := range values {
		f.Update(Sample{time: float64(i), value: v})
	}
}

func TestLastValue(t *testing.T) {
	f := &lastValue{}
	if f.Forecast() != 0 {
		t.Error("empty forecast != 0")
	}
	feed(f, 1, 5, 3)
	if f.Forecast() != 3 {
		t.Errorf("Forecast = %g", f.Forecast())
	}
}

func TestRunningMean(t *testing.T) {
	f := &runningMean{}
	feed(f, 2, 4, 6)
	if f.Forecast() != 4 {
		t.Errorf("Forecast = %g", f.Forecast())
	}
}

func TestSlidingMedian(t *testing.T) {
	f := newSlidingMedian(3)
	feed(f, 1, 100, 2)
	if f.Forecast() != 2 {
		t.Errorf("median = %g, want 2", f.Forecast())
	}
	feed(f, 3) // window now {100, 2, 3}
	if f.Forecast() != 3 {
		t.Errorf("median after slide = %g, want 3", f.Forecast())
	}
	even := newSlidingMedian(4)
	feed(even, 1, 2, 3, 4)
	if even.Forecast() != 2.5 {
		t.Errorf("even median = %g, want 2.5", even.Forecast())
	}
	if newSlidingMedian(0).window != 1 {
		t.Error("window floor missing")
	}
}

func TestEWMA(t *testing.T) {
	f := newEWMA(0.5)
	feed(f, 10)
	if f.Forecast() != 10 {
		t.Error("first sample should seed EWMA")
	}
	feed(f, 20)
	if f.Forecast() != 15 {
		t.Errorf("EWMA = %g, want 15", f.Forecast())
	}
	if newEWMA(-1).alpha <= 0 || newEWMA(5).alpha > 1 {
		t.Error("alpha clamping broken")
	}
}

func TestAdaptivePicksGoodMember(t *testing.T) {
	// Constant series: every member converges, error ~0, any pick is fine.
	f := newAdaptive()
	feed(f, 0.5, 0.5, 0.5, 0.5)
	if math.Abs(f.Forecast()-0.5) > 1e-12 {
		t.Errorf("constant series forecast = %g", f.Forecast())
	}
	// Trending series: last-value beats running-mean badly; the ensemble
	// must not answer with the global mean.
	g := newAdaptive()
	for i := 0; i < 50; i++ {
		g.Update(Sample{time: float64(i), value: float64(i)})
	}
	if got := g.Forecast(); got < 40 {
		t.Errorf("adaptive forecast %g lags a linear trend", got)
	}
}

func TestAdaptiveEmpty(t *testing.T) {
	f := newAdaptive()
	if f.Forecast() != 0 {
		t.Error("empty adaptive forecast != 0")
	}
}

func TestNewForecasterByName(t *testing.T) {
	for _, name := range []string{"last", "mean", "median", "ewma", "adaptive"} {
		f, err := NewForecaster(name)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name() != name {
			t.Errorf("Name() = %q, want %q", f.Name(), name)
		}
	}
	if _, err := NewForecaster("arima"); err == nil {
		t.Error("unknown forecaster accepted")
	}
}

func newTestCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Uniform(4, cluster.LinuxWorkstation()), cluster.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterProber(t *testing.T) {
	c := newTestCluster(t)
	c.Node(1).AddLoad(cluster.Step{CPU: 0.75})
	p := ClusterProber{C: c}
	if p.NumNodes() != 4 {
		t.Fatal("NumNodes wrong")
	}
	m0, m1 := p.Probe(0), p.Probe(1)
	if m0.CPUAvail != 1 || math.Abs(m1.CPUAvail-0.25) > 1e-12 {
		t.Errorf("probe CPU = %g, %g", m0.CPUAvail, m1.CPUAvail)
	}
	if m0.FreeMemoryMB != 256 || m0.BandwidthMBps != 12.5 {
		t.Errorf("probe mem/bw = %g, %g", m0.FreeMemoryMB, m0.BandwidthMBps)
	}
}

func TestMonitorSense(t *testing.T) {
	c := newTestCluster(t)
	c.Node(0).AddLoad(cluster.Ramp{Start: 0, Rate: 0.1, Target: 0.8})
	m := New(ClusterProber{C: c}, func() Forecaster { return &lastValue{} })
	ms := m.Sense(c.Now())
	if len(ms) != 4 {
		t.Fatalf("Sense returned %d", len(ms))
	}
	if ms[0].CPUAvail != 1 {
		t.Errorf("t=0 avail = %g", ms[0].CPUAvail)
	}
	c.Advance(4) // node 0 load = 0.4
	ms = m.Sense(c.Now())
	if math.Abs(ms[0].CPUAvail-0.6) > 1e-12 {
		t.Errorf("t=4 avail = %g, want 0.6", ms[0].CPUAvail)
	}
	if m.senses != 2 {
		t.Errorf("senses = %d", m.senses)
	}
}

func TestMonitorFeedsCapacity(t *testing.T) {
	c := newTestCluster(t)
	// Two loaded nodes as in the paper's 4-node example.
	c.Node(0).AddLoad(cluster.Step{CPU: 0.7, MemMB: 150})
	c.Node(1).AddLoad(cluster.Step{CPU: 0.5, MemMB: 100})
	m := NewAdaptiveMonitor(ClusterProber{C: c})
	ms := m.Sense(c.Now())
	caps, err := capacity.Relative(ms, capacity.EqualWeights())
	if err != nil {
		t.Fatal(err)
	}
	// Unloaded nodes 2,3 must have the largest (equal) capacities, and the
	// most-loaded node 0 the smallest.
	if !(caps[0] < caps[1] && caps[1] < caps[2]) {
		t.Errorf("capacity ordering wrong: %v", caps)
	}
	if math.Abs(caps[2]-caps[3]) > 1e-9 {
		t.Errorf("identical nodes differ: %v", caps)
	}
}

func TestMonitorString(t *testing.T) {
	c := newTestCluster(t)
	m := NewAdaptiveMonitor(ClusterProber{C: c})
	if m.String() != "monitor{4 nodes, 0 senses}" {
		t.Errorf("String = %q", m.String())
	}
}
