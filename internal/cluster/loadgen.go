package cluster

import (
	"math"
)

// LoadGenerator produces background CPU and memory load as deterministic
// functions of virtual time. This mirrors the paper's synthetic load
// generator: "the load generated on the processor increased linearly at a
// specified rate until it reached the desired load level", lowering the
// node's capacity to do application work.
type LoadGenerator interface {
	// CPULoad returns the CPU fraction consumed at time t, in [0, 1].
	CPULoad(t float64) float64
	// MemoryMB returns the background memory footprint at time t.
	MemoryMB(t float64) float64
}

// Ramp increases load linearly from Start time at Rate per second until it
// reaches Target, then holds — the paper's generator.
type Ramp struct {
	// Start is the virtual time the ramp begins.
	Start float64
	// Rate is the CPU-load increase per second.
	Rate float64
	// Target is the plateau CPU load in [0, 1].
	Target float64
	// MemTargetMB is the plateau memory footprint, ramped proportionally.
	MemTargetMB float64
}

// CPULoad implements LoadGenerator.
func (r Ramp) CPULoad(t float64) float64 {
	if t <= r.Start || r.Target <= 0 {
		return 0
	}
	load := (t - r.Start) * r.Rate
	if load > r.Target {
		load = r.Target
	}
	return load
}

// MemoryMB implements LoadGenerator.
func (r Ramp) MemoryMB(t float64) float64 {
	if r.Target <= 0 {
		return 0
	}
	return r.CPULoad(t) / r.Target * r.MemTargetMB
}

// Step switches load on during [Start, Stop) (Stop <= Start means forever).
type Step struct {
	Start, Stop float64
	CPU         float64
	MemMB       float64
}

// CPULoad implements LoadGenerator.
func (s Step) CPULoad(t float64) float64 {
	if t < s.Start || (s.Stop > s.Start && t >= s.Stop) {
		return 0
	}
	return s.CPU
}

// MemoryMB implements LoadGenerator.
func (s Step) MemoryMB(t float64) float64 {
	if t < s.Start || (s.Stop > s.Start && t >= s.Stop) {
		return 0
	}
	return s.MemMB
}

// Sinusoid oscillates load around Mean with the given Amplitude and Period,
// clamped to [0, 1]; useful for exercising forecasters.
type Sinusoid struct {
	Mean, Amplitude, Period float64
	MemMB                   float64
}

// CPULoad implements LoadGenerator.
func (s Sinusoid) CPULoad(t float64) float64 {
	if s.Period <= 0 {
		return clamp01(s.Mean)
	}
	return clamp01(s.Mean + s.Amplitude*math.Sin(2*math.Pi*t/s.Period))
}

// MemoryMB implements LoadGenerator.
func (s Sinusoid) MemoryMB(t float64) float64 { return s.MemMB }

// Noise jitters load uniformly in [Mean-Amplitude, Mean+Amplitude], clamped
// to [0, 1]. The value is a pure seeded hash of the time slot floor(t/SlotSec),
// so runs are deterministic and, unlike Sinusoid, consecutive slots are
// uncorrelated: with the same Mean on every node the cluster stays balanced
// on average while each individual reading wiggles — the scenario where
// repartitioning on every sense is pure churn.
type Noise struct {
	// Seed decorrelates generators; give each node a different seed.
	Seed int64
	// Mean is the central CPU load, Amplitude the half-width of the jitter.
	Mean, Amplitude float64
	// SlotSec is the jitter resolution (<= 0 means 1s slots).
	SlotSec float64
	// memMB is a constant background memory footprint.
	memMB float64
}

// CPULoad implements LoadGenerator.
func (n Noise) CPULoad(t float64) float64 {
	slot := n.SlotSec
	if slot <= 0 {
		slot = 1
	}
	k := uint64(n.Seed)*0x9E3779B97F4A7C15 + uint64(int64(math.Floor(t/slot)))
	// splitmix64 finalizer: a well-mixed 64-bit hash of (seed, slot).
	k ^= k >> 30
	k *= 0xBF58476D1CE4E5B9
	k ^= k >> 27
	k *= 0x94D049BB133111EB
	k ^= k >> 31
	u := float64(k>>11) / (1 << 53) // uniform [0, 1)
	return clamp01(n.Mean + n.Amplitude*(2*u-1))
}

// MemoryMB implements LoadGenerator.
func (n Noise) MemoryMB(t float64) float64 { return n.memMB }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
