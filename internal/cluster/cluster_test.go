package cluster

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNodeSpecValidate(t *testing.T) {
	good := LinuxWorkstation()
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	bad := []NodeSpec{
		{SpeedMFlops: 0, MemoryMB: 256, BandwidthMBps: 12.5},
		{SpeedMFlops: 300, MemoryMB: -1, BandwidthMBps: 12.5},
		{SpeedMFlops: 300, MemoryMB: 256, BandwidthMBps: 0},
	}
	for _, s := range bad {
		if err := s.validate(); err == nil {
			t.Errorf("spec %+v accepted", s)
		}
	}
	if _, err := newNode(bad[0]); err == nil {
		t.Error("NewNode accepted invalid spec")
	}
}

func TestRampLoad(t *testing.T) {
	r := Ramp{Start: 10, Rate: 0.1, Target: 0.5, MemTargetMB: 100}
	if r.CPULoad(5) != 0 {
		t.Error("load before start")
	}
	if got := r.CPULoad(12); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("ramp at t=12: %g, want 0.2", got)
	}
	if got := r.CPULoad(100); got != 0.5 {
		t.Errorf("plateau = %g, want 0.5", got)
	}
	// Memory ramps proportionally to CPU.
	if got := r.MemoryMB(12); math.Abs(got-40) > 1e-9 {
		t.Errorf("mem at t=12: %g, want 40", got)
	}
	if got := r.MemoryMB(100); got != 100 {
		t.Errorf("mem plateau = %g", got)
	}
}

func TestStepLoad(t *testing.T) {
	s := Step{Start: 5, Stop: 10, CPU: 0.4, MemMB: 50}
	if s.CPULoad(4.9) != 0 || s.CPULoad(10) != 0 {
		t.Error("step active outside window")
	}
	if s.CPULoad(7) != 0.4 || s.MemoryMB(7) != 50 {
		t.Error("step inactive inside window")
	}
	forever := Step{Start: 5, CPU: 0.3}
	if forever.CPULoad(1e9) != 0.3 {
		t.Error("open-ended step should persist")
	}
}

func TestSinusoidLoadBounded(t *testing.T) {
	s := Sinusoid{Mean: 0.5, Amplitude: 0.8, Period: 60}
	for ti := 0; ti < 200; ti++ {
		v := s.CPULoad(float64(ti))
		if v < 0 || v > 1 {
			t.Fatalf("sinusoid out of [0,1]: %g", v)
		}
	}
	flat := Sinusoid{Mean: 0.3}
	if flat.CPULoad(42) != 0.3 {
		t.Error("zero-period sinusoid should return mean")
	}
}

func TestNoiseLoad(t *testing.T) {
	n := Noise{Seed: 3, Mean: 0.4, Amplitude: 0.2, SlotSec: 0.5, memMB: 10}
	distinct := map[float64]bool{}
	for ti := 0; ti < 200; ti++ {
		tm := float64(ti) * 0.25
		v := n.CPULoad(tm)
		if v < 0.2-1e-12 || v > 0.6+1e-12 {
			t.Fatalf("noise at t=%g out of [mean±amp]: %g", tm, v)
		}
		if v != n.CPULoad(tm) {
			t.Fatalf("noise at t=%g not deterministic", tm)
		}
		distinct[v] = true
	}
	if len(distinct) < 10 {
		t.Errorf("noise produced only %d distinct values over 200 slots", len(distinct))
	}
	if n.MemoryMB(7) != 10 {
		t.Errorf("noise memory = %g", n.MemoryMB(7))
	}
	if other := (Noise{Seed: 4, Mean: 0.4, Amplitude: 0.2, SlotSec: 0.5}); other.CPULoad(1) == n.CPULoad(1) &&
		other.CPULoad(2) == n.CPULoad(2) && other.CPULoad(3) == n.CPULoad(3) {
		t.Error("different seeds produced identical streams")
	}
}

func TestNodeAvailability(t *testing.T) {
	n, err := newNode(LinuxWorkstation())
	if err != nil {
		t.Fatal(err)
	}
	if n.CPUAvail(0) != 1 {
		t.Error("unloaded node availability != 1")
	}
	n.AddLoad(Step{CPU: 0.6})
	if got := n.CPUAvail(0); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("avail = %g, want 0.4", got)
	}
	n.AddLoad(Step{CPU: 0.9}) // combined load 1.5 -> floored
	if got := n.CPUAvail(0); got != minAvail {
		t.Errorf("overloaded avail = %g, want floor %g", got, minAvail)
	}
	n.ClearLoad()
	if n.CPUAvail(0) != 1 {
		t.Error("ClearLoad failed")
	}
}

func TestNodeMemoryFloor(t *testing.T) {
	n, _ := newNode(LinuxWorkstation())
	n.AddLoad(Step{CPU: 0, MemMB: 10000})
	if got := n.FreeMemoryMB(0); got != 2.56 {
		t.Errorf("memory floor = %g, want 2.56", got)
	}
}

func TestEffectiveSpeed(t *testing.T) {
	n, _ := newNode(LinuxWorkstation())
	n.AddLoad(Step{CPU: 0.5})
	if got := n.effectiveSpeed(0); math.Abs(got-150) > 1e-9 {
		t.Errorf("effective speed = %g, want 150", got)
	}
}

func TestClusterClock(t *testing.T) {
	c, err := New(Uniform(4, LinuxWorkstation()), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if c.NumNodes() != 4 || c.Now() != 0 {
		t.Fatal("bad initial cluster")
	}
	c.Advance(2.5)
	c.Advance(1.5)
	if c.Now() != 4 {
		t.Errorf("Now = %g", c.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative Advance should panic")
		}
	}()
	c.Advance(-1)
}

func TestClusterRejectsEmpty(t *testing.T) {
	if _, err := New(nil, DefaultParams()); err == nil {
		t.Error("empty cluster accepted")
	}
}

func TestComputeTimeTracksLoad(t *testing.T) {
	c, _ := New(Uniform(2, LinuxWorkstation()), DefaultParams())
	// 300 Mflops of work on an idle 300 MFlop/s node: 1 second.
	if got := c.ComputeTimeMem(0, 300, 0); math.Abs(got-1) > 1e-12 {
		t.Errorf("idle compute time = %g, want 1", got)
	}
	c.Node(1).AddLoad(Ramp{Start: 0, Rate: 0.1, Target: 0.5})
	c.Advance(5) // load = 0.5 -> avail 0.5 -> 2 seconds
	if got := c.ComputeTimeMem(1, 300, 0); math.Abs(got-2) > 1e-12 {
		t.Errorf("loaded compute time = %g, want 2", got)
	}
	// Unloaded node unaffected.
	if got := c.ComputeTimeMem(0, 300, 0); math.Abs(got-1) > 1e-12 {
		t.Errorf("idle node affected by other node's load: %g", got)
	}
}

func TestComputeTimeMem(t *testing.T) {
	c, _ := New(Uniform(2, LinuxWorkstation()), DefaultParams())
	// 300 Mflops on an idle 300 MFlop/s node take 1 s; fitting in memory
	// costs nothing extra.
	const base = 1.0
	if got := c.ComputeTimeMem(0, 300, 100); got != base {
		t.Errorf("in-memory time %g != %g", got, base)
	}
	// Working set twice the free memory: half resident -> twice as slow.
	c.Node(1).AddLoad(Step{MemMB: 156}) // free = 100 MB
	slow := c.ComputeTimeMem(1, 300, 200)
	if math.Abs(slow-2*base) > 1e-9 {
		t.Errorf("paging time = %g, want %g", slow, 2*base)
	}
	// Thrash floor bounds the collapse.
	worst := c.ComputeTimeMem(1, 300, 1e9)
	if worst > base/thrashFloor+1e-6 {
		t.Errorf("thrash slowdown unbounded: %g", worst)
	}
	// Zero working set never pages.
	if c.ComputeTimeMem(1, 300, 0) != base {
		t.Error("zero working set paged")
	}
}

func TestCommTime(t *testing.T) {
	c, _ := New(Uniform(2, LinuxWorkstation()), DefaultParams())
	// 12.5 MB at 12.5 MB/s = 1 s plus one latency.
	got := c.CommTime(0, 12.5e6, 1)
	want := 1 + 100e-6
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("CommTime = %g, want %g", got, want)
	}
}

func TestSenseTime(t *testing.T) {
	c, _ := New(Uniform(8, LinuxWorkstation()), DefaultParams())
	if got := c.SenseTime(); math.Abs(got-4.0) > 1e-12 {
		t.Errorf("SenseTime = %g, want 4.0 (8 nodes x 0.5s)", got)
	}
}

func TestUniformNames(t *testing.T) {
	specs := Uniform(3, LinuxWorkstation())
	if specs[0].Name != "node00" || specs[2].Name != "node02" {
		t.Errorf("names = %v, %v", specs[0].Name, specs[2].Name)
	}
}

func TestQuickAvailabilityBounds(t *testing.T) {
	f := func(rate, target, tSeed uint16) bool {
		n, _ := newNode(LinuxWorkstation())
		n.AddLoad(Ramp{
			Start:  0,
			Rate:   float64(rate%100) / 50,
			Target: float64(target%150) / 100, // may exceed 1
		})
		tt := float64(tSeed % 1000)
		a := n.CPUAvail(tt)
		return a >= minAvail && a <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
