package monitor

import (
	"strconv"
	"time"

	"samrpart/internal/obs"
)

// monObs holds the monitor's pre-registered metric handles. The zero value
// (nil handles) discards every update, so the sensing path needs no
// per-site guards when observability is off.
type monObs struct {
	enabled      bool
	probeSeconds *obs.Histogram
	probes       *obs.Counter
	timeouts     *obs.Counter
	drops        *obs.Counter
	panics       *obs.Counter
	garbage      *obs.Counter
	outliers     *obs.Counter
	staleFbs     *obs.Counter
	decays       *obs.Counter
	transitions  *obs.Counter
	health       []*obs.Gauge
}

// SetObs registers the monitor's metrics in reg and starts recording probe
// latency, pipeline counters, per-node health gauges and health-transition
// counts. A nil registry leaves the monitor uninstrumented (the default).
func (m *Monitor) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ob := monObs{
		enabled: true,
		probeSeconds: reg.Histogram("samr_monitor_probe_seconds",
			"Wall time of one node probe.", obs.DurationBuckets()),
		probes:   reg.Counter("samr_monitor_probes_total", "Probe attempts."),
		timeouts: reg.Counter("samr_monitor_timeouts_total", "Probes lost to timeouts."),
		drops:    reg.Counter("samr_monitor_drops_total", "Probes lost to dropouts."),
		panics:   reg.Counter("samr_monitor_panics_total", "Probes lost to prober panics."),
		garbage:  reg.Counter("samr_monitor_garbage_total", "Readings rejected by sanitization."),
		outliers: reg.Counter("samr_monitor_outliers_total", "Readings rejected by the MAD filter."),
		staleFbs: reg.Counter("samr_monitor_stale_fallbacks_total",
			"Senses answered from the last forecast within the staleness budget."),
		decays: reg.Counter("samr_monitor_decays_total",
			"Senses answered with a decayed forecast past the staleness budget."),
		transitions: reg.Counter("samr_monitor_health_transitions_total",
			"Per-node sensor health state changes."),
		health: make([]*obs.Gauge, len(m.health)),
	}
	for k := range ob.health {
		ob.health[k] = reg.Gauge("samr_monitor_health",
			"Sensor health per node (0 ok, 1 stale, 2 suspect, 3 dead).",
			obs.Label{Key: "node", Value: strconv.Itoa(k)})
	}
	m.ob = ob
}

// syncObs mirrors the pipeline counters into the registry and records
// node k's health transition, if any. Callers must hold m.mu.
func (m *Monitor) syncObs(k int, before Health, prev SenseStats) {
	if !m.ob.enabled {
		return
	}
	m.ob.probes.Add(int64(m.stats.Probes - prev.Probes))
	m.ob.timeouts.Add(int64(m.stats.Timeouts - prev.Timeouts))
	m.ob.drops.Add(int64(m.stats.Drops - prev.Drops))
	m.ob.panics.Add(int64(m.stats.Panics - prev.Panics))
	m.ob.garbage.Add(int64(m.stats.Garbage - prev.Garbage))
	m.ob.outliers.Add(int64(m.stats.Outliers - prev.Outliers))
	m.ob.staleFbs.Add(int64(m.stats.StaleFallbacks - prev.StaleFallbacks))
	m.ob.decays.Add(int64(m.stats.Decays - prev.Decays))
	after := healthOf(m.health[k].misses)
	if after != before {
		m.ob.transitions.Inc()
	}
	m.ob.health[k].Set(float64(after))
}

// probeStart returns the probe timestamp when latency is being recorded
// (the zero time otherwise, so the uninstrumented path skips the clock
// read).
func (m *Monitor) probeStart() time.Time {
	if !m.ob.enabled {
		return time.Time{}
	}
	return time.Now()
}

// probeDone feeds one probe's latency into the histogram.
func (m *Monitor) probeDone(start time.Time) {
	if start.IsZero() {
		return
	}
	m.ob.probeSeconds.Observe(time.Since(start).Seconds())
}
