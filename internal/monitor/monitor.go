package monitor

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"samrpart/internal/capacity"
	"samrpart/internal/cluster"
	"samrpart/internal/parallel"
)

// Prober supplies ground-truth resource measurements for each node; the
// virtual cluster implements it via ClusterProber, and cmd/nwsmon over the
// local host's /proc.
type Prober interface {
	// NumNodes returns the cluster size.
	NumNodes() int
	// Probe returns the instantaneous resource state of node k.
	Probe(k int) capacity.Measurement
}

// ClusterProber adapts the virtual cluster to the Prober interface. The
// CPU measurement is the availability fraction scaled by the node's
// benchmark speed relative to the fastest machine in the cluster — the
// paper's ref [6] model, where offline benchmarks supply relative speeds
// and the monitor supplies utilization. On homogeneous hardware the scale
// factor is 1 and the measurement reduces to plain availability.
type ClusterProber struct {
	C *cluster.Cluster
}

// NumNodes implements Prober.
func (p ClusterProber) NumNodes() int { return p.C.NumNodes() }

// maxSpeed returns the fastest nominal node speed in the cluster.
func (p ClusterProber) maxSpeed() float64 {
	max := 0.0
	for k := 0; k < p.C.NumNodes(); k++ {
		if s := p.C.Node(k).Spec.SpeedMFlops; s > max {
			max = s
		}
	}
	return max
}

// Probe implements Prober.
func (p ClusterProber) Probe(k int) capacity.Measurement {
	n := p.C.Node(k)
	t := p.C.Now()
	speedScale := 1.0
	if max := p.maxSpeed(); max > 0 {
		speedScale = n.Spec.SpeedMFlops / max
	}
	return capacity.Measurement{
		CPUAvail:      n.CPUAvail(t) * speedScale,
		FreeMemoryMB:  n.FreeMemoryMB(t),
		BandwidthMBps: n.Bandwidth(t),
	}
}

// nodeSeries holds the three per-resource forecasters of one node.
type nodeSeries struct {
	cpu, mem, bw Forecaster
}

// Monitor is the resource monitoring service: on every Sense it probes each
// node, feeds the per-resource forecasters, and returns forecast
// measurements. With hygiene switched on (SetHygiene) it sanitizes
// readings, rejects outliers, tracks per-node sensor health and degrades
// silent nodes gracefully instead of poisoning the forecasts. Safe for
// concurrent use.
type Monitor struct {
	mu      sync.Mutex
	prober  Prober
	nodes   []nodeSeries
	senses  int
	hygiene bool
	health  []nodeHealth
	stats   SenseStats
	ob      monObs

	// workers is the probe fan-out width (SetWorkers); <= 1 keeps the
	// serial sweep. probeMeas/probeErrs/probeDurs are the pooled per-node
	// slots the concurrent probe phase writes, so steady-state sweeps
	// allocate nothing extra.
	workers   int
	probeMeas []capacity.Measurement
	probeErrs []error
	probeDurs []time.Duration
}

// SetWorkers bounds Sense's probe fan-out: with n > 1 probes run
// concurrently across up to n workers and their results are merged in node
// order, so stats, hygiene decisions, health transitions and forecasts are
// bit-identical to the serial sweep — only wall-clock changes. The prober
// must tolerate concurrent Probe calls (ClusterProber and FaultyProber do);
// 0 or 1, the default, keeps the fully serial sweep for probers that don't.
func (m *Monitor) SetWorkers(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.workers = n
}

// New builds a monitor over the prober, with one forecaster of the given
// constructor per node per resource.
func New(prober Prober, mkForecaster func() Forecaster) *Monitor {
	n := prober.NumNodes()
	m := &Monitor{prober: prober, nodes: make([]nodeSeries, n), health: make([]nodeHealth, n)}
	for k := range m.nodes {
		m.nodes[k] = nodeSeries{cpu: mkForecaster(), mem: mkForecaster(), bw: mkForecaster()}
	}
	return m
}

// NewAdaptiveMonitor builds a monitor with NWS-style adaptive forecasters.
func NewAdaptiveMonitor(prober Prober) *Monitor {
	return New(prober, func() Forecaster { return newAdaptive() })
}

// probeOne probes node k with panic recovery: a panicking prober is a
// failed sensor, not a reason to crash the engine. CheckedProbers report
// failures as errors; plain Probers only fail by panicking.
func (m *Monitor) probeOne(k int) (meas capacity.Measurement, err error) {
	defer func() {
		if r := recover(); r != nil {
			meas = capacity.Measurement{}
			err = fmt.Errorf("%w on node %d: %v", errProbePanic, k, r)
		}
	}()
	if cp, ok := m.prober.(checkedProber); ok {
		return cp.ProbeChecked(k)
	}
	return m.prober.Probe(k), nil
}

// forecastOf returns node k's standing forecast without feeding new data.
func (m *Monitor) forecastOf(k int) capacity.Measurement {
	return capacity.Measurement{
		CPUAvail:      m.nodes[k].cpu.Forecast(),
		FreeMemoryMB:  m.nodes[k].mem.Forecast(),
		BandwidthMBps: m.nodes[k].bw.Forecast(),
	}
}

// Sense probes every node at virtual time now, updates the forecasters and
// returns the forecast measurements. The caller is responsible for charging
// the probe cost to its clock (cluster.SenseTime).
//
// With hygiene enabled, each probe runs the gauntlet
// sanitize → MAD-outlier-filter before reaching the forecasters; a probe
// that fails (timeout, dropout, panic) or is rejected counts as a miss.
// Missing nodes answer from their last forecast for stalenessBudget senses,
// then decay toward the floor, and are masked from Alive() once Dead.
// With hygiene disabled, probes feed the forecasters raw and failed probes
// read as zero (the naive interpretation this PR's hygiene replaces).
func (m *Monitor) Sense(now float64) []capacity.Measurement {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]capacity.Measurement, len(m.nodes))
	if w, n := m.workers, len(m.nodes); w > 1 && n > 1 {
		// Concurrent probe phase into pooled per-node slots, then a serial
		// merge in node order. probeOne contains its own panic recovery, so
		// a panicking prober fails only its slot; the merge replays exactly
		// the serial pipeline, so everything downstream of the probes is
		// bit-identical at any width. Probe latency histograms are observed
		// in the merge to keep the registry single-writer under m.mu.
		if cap(m.probeMeas) < n {
			m.probeMeas = make([]capacity.Measurement, n)
			m.probeErrs = make([]error, n)
			m.probeDurs = make([]time.Duration, n)
		}
		meas, errs, durs := m.probeMeas[:n], m.probeErrs[:n], m.probeDurs[:n]
		timed := m.ob.enabled
		parallel.For(w, n, func(k int) {
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			meas[k], errs[k] = m.probeOne(k)
			if timed {
				durs[k] = time.Since(t0)
			}
		})
		for k := range m.nodes {
			if timed {
				m.ob.probeSeconds.Observe(durs[k].Seconds())
			}
			m.absorb(k, now, meas[k], errs[k], out)
		}
	} else {
		for k := range m.nodes {
			probeT0 := m.probeStart()
			truth, err := m.probeOne(k)
			m.probeDone(probeT0)
			m.absorb(k, now, truth, err, out)
		}
	}
	m.senses++
	return out
}

// absorb runs the post-probe pipeline for node k — stats accounting, the
// hygiene gauntlet, health bookkeeping, forecaster updates and metric sync —
// writing the node's answer into out[k]. Callers hold m.mu and call it in
// ascending node order; it is the shared tail of the serial and concurrent
// sweeps, which is what makes them bit-identical.
func (m *Monitor) absorb(k int, now float64, truth capacity.Measurement, err error, out []capacity.Measurement) {
	prevStats := m.stats
	healthBefore := healthOf(m.health[k].misses)
	m.stats.Probes++
	if err != nil {
		switch {
		case errors.Is(err, errProbePanic):
			m.stats.Panics++
		case errors.Is(err, errProbeTimeout):
			m.stats.Timeouts++
		default:
			m.stats.Drops++
		}
	}
	h := &m.health[k]
	if !m.hygiene {
		// Raw path: a failed probe reads as zero. Health is still
		// tracked so a broken sensor is reportable either way.
		if err != nil {
			truth = capacity.Measurement{}
			h.misses++
		} else {
			h.misses = 0
		}
		m.update(k, now, truth)
		out[k] = m.forecastOf(k)
		m.syncObs(k, healthBefore, prevStats)
		return
	}
	reject := err != nil
	if !reject && !sane(truth) {
		m.stats.Garbage++
		reject = true
	}
	if !reject && (madOutlier(h.win[0], truth.CPUAvail, hygieneMADK) ||
		madOutlier(h.win[1], truth.FreeMemoryMB, hygieneMADK) ||
		madOutlier(h.win[2], truth.BandwidthMBps, hygieneMADK)) {
		m.stats.Outliers++
		reject = true
	}
	if reject {
		h.misses++
		fc := m.forecastOf(k)
		if h.misses <= stalenessBudget {
			m.stats.StaleFallbacks++
			out[k] = fc
		} else {
			m.stats.Decays++
			out[k] = decayed(fc, h.misses-stalenessBudget)
		}
		m.syncObs(k, healthBefore, prevStats)
		return
	}
	h.misses = 0
	h.win[0] = push(h.win[0], truth.CPUAvail, madWindow)
	h.win[1] = push(h.win[1], truth.FreeMemoryMB, madWindow)
	h.win[2] = push(h.win[2], truth.BandwidthMBps, madWindow)
	m.update(k, now, truth)
	out[k] = m.forecastOf(k)
	m.syncObs(k, healthBefore, prevStats)
}

// update feeds one accepted reading into node k's forecasters.
func (m *Monitor) update(k int, now float64, truth capacity.Measurement) {
	m.nodes[k].cpu.Update(Sample{time: now, value: truth.CPUAvail})
	m.nodes[k].mem.Update(Sample{time: now, value: truth.FreeMemoryMB})
	m.nodes[k].bw.Update(Sample{time: now, value: truth.BandwidthMBps})
}

// NumNodes returns the monitored cluster size.
func (m *Monitor) NumNodes() int { return len(m.nodes) }

// String summarizes the monitor state.
func (m *Monitor) String() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return fmt.Sprintf("monitor{%d nodes, %d senses}", len(m.nodes), m.senses)
}
