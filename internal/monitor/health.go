package monitor

import (
	"errors"
	"math"
	"sort"

	"samrpart/internal/capacity"
)

// Health is the per-node sensor health state the monitor tracks:
//
//	OK ──miss──▶ Stale ──misses──▶ Suspect ──misses──▶ Dead
//	 ▲                                                   │
//	 └────────────── any accepted reading ◀──────────────┘
//
// A "miss" is any probe that produced no usable reading: a timeout, a
// dropout, a prober panic, a garbage value, or a MAD-rejected outlier.
type Health int

const (
	// HealthOK: the latest probe was accepted.
	HealthOK Health = iota
	// HealthStale: recent misses; the node rides on its last forecast.
	HealthStale
	// HealthSuspect: the staleness budget is spent; the node's reported
	// capacity decays toward the floor.
	HealthSuspect
	// HealthDead: the sensor is considered gone; the node is excluded from
	// the capacity mask until a probe succeeds again.
	HealthDead
)

// String renders the state for diagnostics.
func (h Health) String() string {
	switch h {
	case HealthOK:
		return "ok"
	case HealthStale:
		return "stale"
	case HealthSuspect:
		return "suspect"
	default:
		return "dead"
	}
}

// Sensing hygiene thresholds (DESIGN.md §8). Hygiene itself is switched
// on per monitor (SetHygiene); off, probes feed the forecasters raw,
// exactly the pre-hygiene behaviour (failed probes then read as zero, the
// naive "no data means nothing available" interpretation).
const (
	// suspectAfter is the consecutive-miss count at which a node turns
	// Suspect (1..suspectAfter-1 misses = Stale).
	suspectAfter = 2
	// deadAfter is the consecutive-miss count at which a node is declared
	// Dead and masked out of the capacity metric.
	deadAfter = suspectAfter + 2
	// stalenessBudget is how many consecutive misses a node may ride on
	// its last forecast unchanged before decay starts.
	stalenessBudget = 1
	// decayFactor multiplies the remaining capacity above the floor on
	// each miss past the budget.
	decayFactor = 0.5
	// cpuFloor is the CPU-availability floor the decay approaches: a
	// silent node is assumed nearly — but never exactly — useless, so
	// quotas stay finite.
	cpuFloor = 0.02
	// cpuMax is the sanity ceiling on reported CPU availability:
	// availability is a fraction of one node, so anything far above 1 is
	// garbage even before the outlier filter has history.
	cpuMax = 1.5
	// madWindow is how many accepted samples per resource feed the
	// median-absolute-deviation outlier filter.
	madWindow = 8
	// hygieneMADK is the rejection threshold in robust standard
	// deviations: a reading further than hygieneMADK·1.4826·MAD from the
	// window median is rejected.
	hygieneMADK = 4
)

// SenseStats counts what the sensing pipeline did, for traces and studies.
type SenseStats struct {
	// Probes is the total number of per-node probe attempts.
	Probes int
	// Timeouts, Drops and Panics are probes that produced no reading.
	Timeouts, Drops, Panics int
	// Garbage counts readings rejected by sanitization (NaN/Inf/negative/
	// implausible), Outliers those rejected by the MAD filter.
	Garbage, Outliers int
	// StaleFallbacks counts senses answered from the last forecast within
	// the staleness budget; Decays counts senses past it.
	StaleFallbacks, Decays int
}

// nodeHealth is the per-node hygiene state.
type nodeHealth struct {
	// misses is the current consecutive-miss streak.
	misses int
	// win holds the recent accepted values per resource (cpu, mem, bw) for
	// the MAD filter.
	win [3][]float64
}

// errProbePanic classifies a recovered prober panic.
var errProbePanic = errors.New("monitor: prober panicked")

// healthOf maps a miss streak to a state.
func healthOf(misses int) Health {
	switch {
	case misses == 0:
		return HealthOK
	case misses < suspectAfter:
		return HealthStale
	case misses < deadAfter:
		return HealthSuspect
	default:
		return HealthDead
	}
}

// SetHygiene switches the hygiene pipeline on or off. Call before the
// first Sense; switching mid-run is safe but resets no state.
func (m *Monitor) SetHygiene(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hygiene = on
}

// Health returns node k's sensor health state.
func (m *Monitor) Health(k int) Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	if k < 0 || k >= len(m.health) {
		return HealthDead
	}
	return healthOf(m.health[k].misses)
}

// Alive returns the capacity validity mask: false marks nodes whose sensor
// is Dead. With hygiene disabled every node is reported alive (raw
// behaviour), even if probes are failing.
func (m *Monitor) Alive() []bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]bool, len(m.health))
	for k := range out {
		out[k] = !m.hygiene || healthOf(m.health[k].misses) != HealthDead
	}
	return out
}

// SenseStats returns a snapshot of the pipeline counters.
func (m *Monitor) SenseStats() SenseStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// sane reports whether a reading passes basic sanitization: finite,
// non-negative, CPU availability below the plausibility ceiling.
func sane(m capacity.Measurement) bool {
	return m.Finite() &&
		m.CPUAvail >= 0 && m.FreeMemoryMB >= 0 && m.BandwidthMBps >= 0 &&
		m.CPUAvail <= cpuMax
}

// madOutlier reports whether x is a MAD outlier against the window. With
// fewer than 4 samples there is no robust baseline and nothing is rejected.
func madOutlier(win []float64, x float64, k float64) bool {
	if len(win) < 4 {
		return false
	}
	tmp := make([]float64, len(win))
	copy(tmp, win)
	sort.Float64s(tmp)
	med := median(tmp)
	for i, v := range tmp {
		tmp[i] = math.Abs(v - med)
	}
	sort.Float64s(tmp)
	mad := median(tmp)
	// Robust sigma with a relative floor so a perfectly constant history
	// (MAD = 0) does not reject ordinary jitter.
	sigma := math.Max(1.4826*mad, math.Max(0.05*math.Abs(med), 1e-9))
	return math.Abs(x-med) > k*sigma
}

// median of a sorted non-empty slice.
func median(sorted []float64) float64 {
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// push appends an accepted value to a bounded window.
func push(win []float64, v float64, cap int) []float64 {
	win = append(win, v)
	if len(win) > cap {
		win = win[1:]
	}
	return win
}

// decayed shrinks a stale forecast toward the floor: after n misses past
// the staleness budget each resource is floor + (value−floor)·factor^n.
func decayed(m capacity.Measurement, n int) capacity.Measurement {
	f := math.Pow(decayFactor, float64(n))
	decay := func(v, floor float64) float64 {
		if v < floor {
			return v
		}
		return floor + (v-floor)*f
	}
	return capacity.Measurement{
		CPUAvail:      decay(m.CPUAvail, cpuFloor),
		FreeMemoryMB:  decay(m.FreeMemoryMB, 0),
		BandwidthMBps: decay(m.BandwidthMBps, 0),
	}
}
