package monitor

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"samrpart/internal/capacity"
)

// waveProber returns smoothly varying per-node readings driven by a
// per-node call counter, so the sequence each node observes is independent
// of the order nodes are probed in — exactly the property a concurrent
// sweep needs to stay comparable with the serial one.
type waveProber struct {
	n     int
	mu    sync.Mutex
	calls []int
}

func newWaveProber(n int) *waveProber {
	return &waveProber{n: n, calls: make([]int, n)}
}

func (p *waveProber) NumNodes() int { return p.n }

func (p *waveProber) Probe(k int) capacity.Measurement {
	p.mu.Lock()
	c := p.calls[k]
	p.calls[k]++
	p.mu.Unlock()
	t := float64(c)
	return capacity.Measurement{
		CPUAvail:      0.5 + 0.4*math.Sin(t*0.7+float64(k)),
		FreeMemoryMB:  100 + 50*math.Cos(t*0.3+float64(k)*0.9),
		BandwidthMBps: 10 + 5*math.Sin(t*0.2+float64(k)*1.7),
	}
}

// TestSenseWorkersBitIdentical runs the same faulty, hygiene-filtered
// sensing workload serially and at several fan-out widths and requires
// bit-identical forecasts, stats, and per-node health every sweep. The
// FaultyProber draws from per-node PRNG streams, so its fault sequence is
// order-independent too — any divergence here is the monitor's fault.
func TestSenseWorkersBitIdentical(t *testing.T) {
	const nodes, sweeps = 33, 48
	spec := ProbeFaultSpec{
		Seed:        7,
		Frac:        0.5,
		TimeoutProb: 0.08,
		DropProb:    0.08,
		GarbageProb: 0.06,
		FreezeProb:  0.01,
	}
	run := func(workers int) ([][]capacity.Measurement, SenseStats, []Health, []bool) {
		m := NewAdaptiveMonitor(NewFaultyProber(newWaveProber(nodes), spec))
		m.SetHygiene(true)
		m.SetWorkers(workers)
		outs := make([][]capacity.Measurement, sweeps)
		for i := 0; i < sweeps; i++ {
			outs[i] = m.Sense(float64(i))
		}
		health := make([]Health, nodes)
		for k := 0; k < nodes; k++ {
			health[k] = m.Health(k)
		}
		return outs, m.SenseStats(), health, m.Alive()
	}
	wantOuts, wantStats, wantHealth, wantAlive := run(0)
	for _, w := range []int{2, 4, 8} {
		outs, stats, health, alive := run(w)
		for i := range outs {
			if !reflect.DeepEqual(outs[i], wantOuts[i]) {
				t.Fatalf("workers=%d sweep %d: forecasts differ from serial", w, i)
			}
		}
		if stats != wantStats {
			t.Fatalf("workers=%d: stats %+v, serial %+v", w, stats, wantStats)
		}
		if !reflect.DeepEqual(health, wantHealth) {
			t.Fatalf("workers=%d: health %v, serial %v", w, health, wantHealth)
		}
		if !reflect.DeepEqual(alive, wantAlive) {
			t.Fatalf("workers=%d: alive %v, serial %v", w, alive, wantAlive)
		}
	}
}

// TestSenseConcurrentHammer drives a worker-pooled monitor from many
// goroutines mixing Sense with every read-side accessor. It asserts
// nothing beyond liveness and sane sweep accounting — its job is to give
// the race detector a dense interleaving to chew on.
func TestSenseConcurrentHammer(t *testing.T) {
	const nodes, goroutines, sweeps = 16, 6, 25
	spec := ProbeFaultSpec{Seed: 11, TimeoutProb: 0.1, DropProb: 0.1}
	m := NewAdaptiveMonitor(NewFaultyProber(newWaveProber(nodes), spec))
	m.SetHygiene(true)
	m.SetWorkers(4)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < sweeps; i++ {
				out := m.Sense(float64(g*sweeps + i))
				if len(out) != nodes {
					t.Errorf("goroutine %d: sense returned %d nodes", g, len(out))
					return
				}
				_ = m.String()
				m.Alive()
				m.SenseStats()
				m.Health(i % nodes)
			}
		}(g)
	}
	wg.Wait()
	if got := m.senses; got != goroutines*sweeps {
		t.Fatalf("senses = %d, want %d", got, goroutines*sweeps)
	}
}

// laggyProber models a real measurement daemon: each probe is a network
// round-trip (fixed RTT) plus a little local compute. Safe for concurrent
// use. Latency-bound probes are exactly what the Sense fan-out hides —
// overlapping RTTs wins wall-clock even on a single core.
type laggyProber struct {
	n    int
	rtt  time.Duration
	work int
}

func (p laggyProber) NumNodes() int { return p.n }

func (p laggyProber) Probe(k int) capacity.Measurement {
	time.Sleep(p.rtt)
	s := float64(k)
	for i := 0; i < p.work; i++ {
		s += math.Sin(s)
	}
	return capacity.Measurement{
		CPUAvail:      0.5 + 0.1*math.Mod(s, 1),
		FreeMemoryMB:  100,
		BandwidthMBps: 10,
	}
}

// BenchmarkSense measures one full sensing sweep over 256 nodes whose
// probes cost a 50µs round-trip each. workers=1 is the serial baseline;
// the wider variants overlap the round-trips and should win wall-clock
// roughly linearly in width, while allocating no more per sweep beyond the
// O(width) goroutine spawns (the per-node probe slots are pooled).
func BenchmarkSense(b *testing.B) {
	const nodes = 256
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			m := NewAdaptiveMonitor(laggyProber{n: nodes, rtt: 50 * time.Microsecond, work: 200})
			m.SetHygiene(true)
			m.SetWorkers(w)
			m.Sense(0) // warm the pooled slots and forecaster state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Sense(float64(i + 1))
			}
		})
	}
}
