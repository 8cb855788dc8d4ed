package monitor

import (
	"math"
	"sync"
	"testing"

	"samrpart/internal/capacity"
)

// scriptedProber returns, per node, a scripted sequence of outcomes.
type scriptedProber struct {
	n      int
	script map[int][]func() (capacity.Measurement, error)
	calls  map[int]int
	good   capacity.Measurement
}

func newScripted(n int) *scriptedProber {
	return &scriptedProber{
		n:      n,
		script: map[int][]func() (capacity.Measurement, error){},
		calls:  map[int]int{},
		good:   capacity.Measurement{CPUAvail: 0.8, FreeMemoryMB: 200, BandwidthMBps: 10},
	}
}

func (p *scriptedProber) NumNodes() int { return p.n }

func (p *scriptedProber) Probe(k int) capacity.Measurement {
	m, _ := p.ProbeChecked(k)
	return m
}

func (p *scriptedProber) ProbeChecked(k int) (capacity.Measurement, error) {
	seq := p.script[k]
	i := p.calls[k]
	p.calls[k]++
	if i < len(seq) {
		return seq[i]()
	}
	return p.good, nil
}

func ok(m capacity.Measurement) func() (capacity.Measurement, error) {
	return func() (capacity.Measurement, error) { return m, nil }
}

func fail(err error) func() (capacity.Measurement, error) {
	return func() (capacity.Measurement, error) { return capacity.Measurement{}, err }
}

func senseN(m *Monitor, n int) []capacity.Measurement {
	var out []capacity.Measurement
	for i := 0; i < n; i++ {
		out = m.Sense(float64(i))
	}
	return out
}

func TestHealthStateMachine(t *testing.T) {
	p := newScripted(2)
	p.script[1] = []func() (capacity.Measurement, error){
		ok(p.good), // sense 0: ok
		fail(errProbeDropped),
		fail(errProbeTimeout),
		fail(errProbeDropped),
		fail(errProbeDropped), // sense 4: 4 consecutive misses -> dead
		ok(p.good),            // sense 5: recovers
	}
	m := New(p, func() Forecaster { return &lastValue{} })
	m.SetHygiene(true) // suspectAfter=2, deadAfter=4
	m.Sense(0)
	if h := m.Health(1); h != HealthOK {
		t.Fatalf("after good probe: %v", h)
	}
	m.Sense(1)
	if h := m.Health(1); h != HealthStale {
		t.Fatalf("after 1 miss: %v", h)
	}
	m.Sense(2)
	if h := m.Health(1); h != HealthSuspect {
		t.Fatalf("after 2 misses: %v", h)
	}
	m.Sense(3)
	m.Sense(4)
	if h := m.Health(1); h != HealthDead {
		t.Fatalf("after 4 misses: %v", h)
	}
	alive := m.Alive()
	if !alive[0] || alive[1] {
		t.Errorf("alive mask = %v, want [true false]", alive)
	}
	m.Sense(5)
	if h := m.Health(1); h != HealthOK {
		t.Fatalf("after recovery: %v", h)
	}
	if alive := m.Alive(); !alive[1] {
		t.Error("recovered node still masked")
	}
}

func TestStaleFallbackThenDecay(t *testing.T) {
	p := newScripted(1)
	var seq []func() (capacity.Measurement, error)
	seq = append(seq, ok(p.good))
	for i := 0; i < 6; i++ {
		seq = append(seq, fail(errProbeDropped))
	}
	p.script[0] = seq
	m := New(p, func() Forecaster { return &lastValue{} })
	m.SetHygiene(true)
	out := m.Sense(0)
	if out[0].CPUAvail != 0.8 {
		t.Fatalf("good sense = %+v", out[0])
	}
	// Miss 1: within the staleness budget, rides on the last forecast.
	out = m.Sense(1)
	if out[0].CPUAvail != 0.8 {
		t.Errorf("stale fallback = %g, want 0.8", out[0].CPUAvail)
	}
	// Misses 2..: decay toward the floor, monotonically.
	prev := out[0].CPUAvail
	for i := 2; i <= 6; i++ {
		out = m.Sense(float64(i))
		v := out[0].CPUAvail
		if v >= prev {
			t.Errorf("miss %d: capacity %g did not decay below %g", i, v, prev)
		}
		if v < cpuFloor {
			t.Errorf("miss %d: capacity %g fell below the floor %g", i, v, cpuFloor)
		}
		prev = v
	}
	st := m.SenseStats()
	if st.StaleFallbacks != 1 || st.Decays != 5 {
		t.Errorf("stats = %+v, want 1 stale fallback and 5 decays", st)
	}
}

func TestGarbageRejected(t *testing.T) {
	p := newScripted(1)
	p.script[0] = []func() (capacity.Measurement, error){
		ok(p.good),
		ok(capacity.Measurement{CPUAvail: math.NaN(), FreeMemoryMB: 200, BandwidthMBps: 10}),
		ok(capacity.Measurement{CPUAvail: math.Inf(1), FreeMemoryMB: 200, BandwidthMBps: 10}),
		ok(capacity.Measurement{CPUAvail: -0.5, FreeMemoryMB: 200, BandwidthMBps: 10}),
		ok(capacity.Measurement{CPUAvail: 900, FreeMemoryMB: 200, BandwidthMBps: 10}),
	}
	m := New(p, func() Forecaster { return &lastValue{} })
	m.SetHygiene(true)
	for i := 0; i < 5; i++ {
		out := m.Sense(float64(i))
		if v := out[0].CPUAvail; math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1.5 {
			t.Fatalf("sense %d leaked insane value %g", i, v)
		}
	}
	if st := m.SenseStats(); st.Garbage != 4 {
		t.Errorf("Garbage = %d, want 4", st.Garbage)
	}
}

func TestMADOutlierRejected(t *testing.T) {
	p := newScripted(1)
	var seq []func() (capacity.Measurement, error)
	// Build a stable history around 0.8 with small jitter...
	for i := 0; i < 8; i++ {
		v := 0.8 + 0.01*float64(i%3-1)
		seq = append(seq, ok(capacity.Measurement{CPUAvail: v, FreeMemoryMB: 200, BandwidthMBps: 10}))
	}
	// ...then a wild-but-finite spike the sanitizer alone cannot catch.
	seq = append(seq, ok(capacity.Measurement{CPUAvail: 0.8, FreeMemoryMB: 200 * 500, BandwidthMBps: 10}))
	p.script[0] = seq
	m := New(p, func() Forecaster { return &lastValue{} })
	m.SetHygiene(true)
	out := senseN(m, 9)
	if out[0].FreeMemoryMB > 300 {
		t.Errorf("spike leaked into forecast: %+v", out[0])
	}
	if st := m.SenseStats(); st.Outliers != 1 {
		t.Errorf("Outliers = %d, want 1", st.Outliers)
	}
	// Ordinary jitter keeps flowing: one more normal reading is accepted.
	out = m.Sense(9)
	if m.Health(0) != HealthOK {
		t.Errorf("health after recovery = %v", m.Health(0))
	}
	_ = out
}

// panicProber panics on the configured node.
type panicProber struct {
	n     int
	panic int
}

func (p panicProber) NumNodes() int { return p.n }
func (p panicProber) Probe(k int) capacity.Measurement {
	if k == p.panic {
		panic("sensor daemon segfault")
	}
	return capacity.Measurement{CPUAvail: 0.8, FreeMemoryMB: 200, BandwidthMBps: 10}
}

func TestProberPanicRecoveredAsDeadSensor(t *testing.T) {
	m := New(panicProber{n: 3, panic: 1}, func() Forecaster { return &lastValue{} })
	m.SetHygiene(true)
	var out []capacity.Measurement
	for i := 0; i < 5; i++ {
		out = m.Sense(float64(i)) // must not crash
	}
	if h := m.Health(1); h != HealthDead {
		t.Errorf("panicking sensor health = %v, want dead", h)
	}
	if alive := m.Alive(); alive[1] || !alive[0] || !alive[2] {
		t.Errorf("alive mask = %v", alive)
	}
	if st := m.SenseStats(); st.Panics != 5 {
		t.Errorf("Panics = %d, want 5", st.Panics)
	}
	// Healthy nodes keep reporting normally.
	if out[0].CPUAvail != 0.8 || out[2].CPUAvail != 0.8 {
		t.Errorf("healthy nodes disturbed: %+v", out)
	}
}

func TestProberPanicRecoveredWithoutHygiene(t *testing.T) {
	// Even on the raw path a panic must not crash; the reading is zero and
	// the sensor is reportable as dead through Health().
	m := New(panicProber{n: 2, panic: 0}, func() Forecaster { return &lastValue{} })
	var out []capacity.Measurement
	for i := 0; i < 5; i++ {
		out = m.Sense(float64(i))
	}
	if out[0].CPUAvail != 0 {
		t.Errorf("raw path panic reading = %g, want 0", out[0].CPUAvail)
	}
	if h := m.Health(0); h != HealthDead {
		t.Errorf("raw path health = %v, want dead", h)
	}
	// But the capacity mask stays all-alive: raw mode masks nothing.
	if alive := m.Alive(); !alive[0] || !alive[1] {
		t.Errorf("raw path alive mask = %v, want all true", alive)
	}
}

func TestMonitorConcurrentAccess(t *testing.T) {
	f := NewFaultyProber(steady(4), ProbeFaultSpec{Seed: 11, DropProb: 0.2, GarbageProb: 0.2})
	m := New(f, func() Forecaster { return newAdaptive() })
	m.SetHygiene(true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch (g + i) % 5 {
				case 0:
					m.Sense(float64(i))
				case 1, 2:
					_ = m.String()
				case 3:
					m.Alive()
				default:
					m.Health(i % 4)
					m.SenseStats()
				}
			}
		}()
	}
	wg.Wait()
	if m.senses == 0 {
		t.Fatal("no senses ran")
	}
}
