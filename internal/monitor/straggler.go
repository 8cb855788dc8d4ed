package monitor

import (
	"math"
	"sort"
)

// StragglerState is the per-rank degradation state the straggler detector
// tracks. It extends the sensing Health chain to gray failures: a rank that
// is alive and answering heartbeats but computing slowly.
//
//	Normal ──slow streak──▶ Shed ──slower streak──▶ Quarantined
//	   ▲                      │ ▲                       │
//	   └──────fast streak─────┘ └──────fast streak──────┘
//
// Shed keeps the rank in the computation at a demoted effective capacity so
// the partitioner moves work off it *before* it misses a deadline;
// Quarantined assigns it zero work while it remains a collective member
// (heartbeats, reductions), one step short of declaring it dead.
type StragglerState int

const (
	// StragglerNormal: the rank's per-cell step time tracks the group.
	StragglerNormal StragglerState = iota
	// StragglerShed: persistently slow; effective capacity is demoted.
	StragglerShed
	// StragglerQuarantined: extremely slow; the rank gets zero work but
	// stays a member, so recovery is a promotion, not a rejoin.
	StragglerQuarantined
)

// String renders the state for diagnostics.
func (s StragglerState) String() string {
	switch s {
	case StragglerNormal:
		return "normal"
	case StragglerShed:
		return "shed"
	default:
		return "quarantined"
	}
}

// Straggler thresholds (DESIGN.md §13).
const (
	// stragglerAlpha is the EWMA smoothing factor applied to per-rank
	// step-time samples. Higher reacts faster, lower rides out noise.
	stragglerAlpha = 0.5
	// slowFactor is the shed threshold: a rank is "slow" in a round when
	// its EWMA exceeds both slowFactor×median and median + stragglerMADK
	// robust sigmas of the group's EWMAs.
	slowFactor = 2
	// quarantineFactor is the quarantine threshold, same construction.
	quarantineFactor = 3 * slowFactor
	// stragglerMADK is the robust-sigma multiplier backing both thresholds,
	// reusing the sensing hygiene's MAD machinery so ordinary jitter on a
	// near-uniform group never trips the ratio test.
	stragglerMADK = 4
	// enterAfter is how many consecutive rounds a rank must breach a
	// threshold before it is demoted — hysteresis against one-off stalls
	// like a GC pause.
	enterAfter = 2
	// exitAfter is how many consecutive clean rounds before a demoted rank
	// is promoted one step back (exits are slower than entries so a
	// flapping node does not thrash the partitioner).
	exitAfter = 3
	// shedCapacity is the effective-capacity multiplier for a Shed rank.
	// Quarantined ranks always weigh zero.
	shedCapacity = 0.5
)

// StragglerTransition records one observable state change.
type StragglerTransition struct {
	Rank     int
	From, To StragglerState
}

// StragglerDetector turns per-rank step-time samples into degradation
// states. It is deterministic: the same sample sequence always yields the
// same transitions, so every SPMD rank can run an identical replica on the
// heartbeat-gossiped timing vector and reach the same shedding decision
// with no extra coordination round.
type StragglerDetector struct {
	ewma   []float64
	seen   []bool
	state  []StragglerState
	breach []int // consecutive rounds at or past a higher-than-state threshold
	clean  []int // consecutive rounds below every threshold
}

// NewStragglerDetector builds a detector for n ranks.
func NewStragglerDetector(n int) *StragglerDetector {
	return &StragglerDetector{
		ewma:   make([]float64, n),
		seen:   make([]bool, n),
		state:  make([]StragglerState, n),
		breach: make([]int, n),
		clean:  make([]int, n),
	}
}

// Observe feeds one round of per-rank step-time samples (seconds per cell
// update since the last round; <= 0 means "no sample this round" — the rank
// was idle or just joined). alive masks ranks that are collective members;
// dead ranks are reset to Normal so a later rejoin starts clean. It returns
// the transitions this round caused.
func (d *StragglerDetector) Observe(perCell []float64, alive []bool) []StragglerTransition {
	n := len(d.state)
	// Update EWMAs for ranks with data.
	for k := 0; k < n && k < len(perCell); k++ {
		if k < len(alive) && !alive[k] {
			d.ewma[k], d.seen[k] = 0, false
			d.reset(k)
			continue
		}
		if v := perCell[k]; v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) {
			if !d.seen[k] {
				d.ewma[k], d.seen[k] = v, true
			} else {
				d.ewma[k] += stragglerAlpha * (v - d.ewma[k])
			}
		}
	}
	// Robust group baseline over alive ranks with history.
	base := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		if d.seen[k] && (k >= len(alive) || alive[k]) {
			base = append(base, d.ewma[k])
		}
	}
	if len(base) < 3 {
		return nil // no meaningful group to be slow relative to
	}
	sort.Float64s(base)
	med := median(base)
	tmp := make([]float64, len(base))
	for i, v := range base {
		tmp[i] = math.Abs(v - med)
	}
	sort.Float64s(tmp)
	sigma := math.Max(1.4826*median(tmp), math.Max(0.05*math.Abs(med), 1e-12))

	var out []StragglerTransition
	for k := 0; k < n; k++ {
		if !d.seen[k] || (k < len(alive) && !alive[k]) {
			continue
		}
		// A rank must breach both the ratio and the robust-deviation test:
		// the ratio keeps a tight group from shedding its natural slowest
		// member; the deviation floor keeps a noisy group honest.
		level := StragglerNormal
		if d.ewma[k] > quarantineFactor*med && d.ewma[k] > med+stragglerMADK*sigma {
			level = StragglerQuarantined
		} else if d.ewma[k] > slowFactor*med && d.ewma[k] > med+stragglerMADK*sigma {
			level = StragglerShed
		}
		prev := d.state[k]
		switch {
		case level > prev:
			d.breach[k]++
			d.clean[k] = 0
			if d.breach[k] >= enterAfter {
				d.transition(k, level, &out)
				d.breach[k] = 0
			}
		case level < prev:
			d.clean[k]++
			d.breach[k] = 0
			if d.clean[k] >= exitAfter {
				d.transition(k, prev-1, &out) // promote one step at a time
				d.clean[k] = 0
			}
		default:
			d.breach[k], d.clean[k] = 0, 0
		}
	}
	return out
}

// transition applies a state change and reports it in out. The detector
// keeps no history: a flapping rank must not grow a replica's memory.
func (d *StragglerDetector) transition(k int, to StragglerState, out *[]StragglerTransition) {
	from := d.state[k]
	if from == to {
		return
	}
	d.state[k] = to
	*out = append(*out, StragglerTransition{Rank: k, From: from, To: to})
}

// reset clears rank k's streaks and state (used when it dies).
func (d *StragglerDetector) reset(k int) {
	if d.state[k] != StragglerNormal {
		d.state[k] = StragglerNormal
	}
	d.breach[k], d.clean[k] = 0, 0
}

// State returns rank k's current degradation state.
func (d *StragglerDetector) State(k int) StragglerState {
	if k < 0 || k >= len(d.state) {
		return StragglerNormal
	}
	return d.state[k]
}

// CapacityFactor is the multiplier the partitioner applies to rank k's
// sensed capacity: 1 for Normal, shedCapacity for Shed, 0 for Quarantined.
func (d *StragglerDetector) CapacityFactor(k int) float64 {
	switch d.State(k) {
	case StragglerShed:
		return shedCapacity
	case StragglerQuarantined:
		return 0
	default:
		return 1
	}
}

// WorkEligible reports whether rank k should be assigned any work at all.
func (d *StragglerDetector) WorkEligible(k int) bool {
	return d.State(k) != StragglerQuarantined
}
