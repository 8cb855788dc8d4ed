// Package capacity implements the paper's relative-capacity metric (§5.2):
// given per-node measurements of CPU availability, free memory and link
// bandwidth, each resource is normalized to a fraction of the cluster total
// and the relative capacity of node k is the weighted sum
//
//	C_k = w_p·P̂_k + w_m·M̂_k + w_b·B̂_k,  w_p + w_m + w_b = 1,
//
// so that Σ_k C_k = 1. The work assigned to node k out of a total load L is
// L_k = C_k · L. The weights are application dependent: a memory-intensive
// application raises w_m, a communication-bound one raises w_b.
package capacity

import (
	"errors"
	"fmt"
	"math"
)

// Measurement is one node's resource state as reported by the monitor.
type Measurement struct {
	// CPUAvail is the fraction of CPU available to the application.
	CPUAvail float64
	// FreeMemoryMB is the unused physical memory.
	FreeMemoryMB float64
	// BandwidthMBps is the available link bandwidth.
	BandwidthMBps float64
}

// Weights are the application-dependent resource weights (w_p, w_m, w_b).
type Weights struct {
	CPU, Memory, Bandwidth float64
}

// EqualWeights weighs the three resources equally (w = 1/3 each), the
// configuration used throughout the paper's experiments.
func EqualWeights() Weights { return Weights{CPU: 1. / 3, Memory: 1. / 3, Bandwidth: 1. / 3} }

// ComputeBiased emphasizes CPU availability, for compute-bound kernels.
func ComputeBiased() Weights { return Weights{CPU: 0.6, Memory: 0.2, Bandwidth: 0.2} }

// MemoryBiased emphasizes free memory, for memory-intensive applications.
func MemoryBiased() Weights { return Weights{CPU: 0.2, Memory: 0.6, Bandwidth: 0.2} }

// CommBiased emphasizes bandwidth, for communication-bound applications.
func CommBiased() Weights { return Weights{CPU: 0.2, Memory: 0.2, Bandwidth: 0.6} }

// validate checks the weights are non-negative and sum to 1.
func (w Weights) validate() error {
	if w.CPU < 0 || w.Memory < 0 || w.Bandwidth < 0 {
		return fmt.Errorf("capacity: negative weight %+v", w)
	}
	if s := w.CPU + w.Memory + w.Bandwidth; math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("capacity: weights sum to %g, want 1", s)
	}
	return nil
}

// errNoNodes is returned when no measurements are supplied.
var errNoNodes = errors.New("capacity: no measurements")

// errDegenerate is returned when a resource is non-positive on every node so
// it cannot be normalized.
var errDegenerate = errors.New("capacity: resource totals are zero across the cluster")

// errInvalidMeasurement is returned when a measurement carries a NaN or
// infinite value. Without the explicit check, math.Max(NaN, 0) would
// propagate NaN through the resource totals into every node's capacity and
// from there into the partitioner's quotas; a sick sensor must surface as a
// typed error the control loop can react to, never as silent NaN quotas.
var errInvalidMeasurement = errors.New("capacity: non-finite measurement")

// Finite reports whether all three resource values are finite (no NaN/Inf).
func (m Measurement) Finite() bool {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	return finite(m.CPUAvail) && finite(m.FreeMemoryMB) && finite(m.BandwidthMBps)
}

// Relative computes the relative capacities C_k. The result sums to 1.
// Negative values clamp to zero; NaN/Inf values are rejected with
// ErrInvalidMeasurement.
func Relative(ms []Measurement, w Weights) ([]float64, error) {
	return RelativeMasked(ms, w, nil)
}

// RelativeMasked computes the relative capacities C_k over the subset of
// nodes with valid[k] == true: masked-out nodes (dead or insane sensors)
// contribute nothing to the resource totals and receive capacity 0, and the
// remainder is renormalized so the result still sums to 1 — the
// sensing-layer analogue of partition.PartitionAlive. A nil mask treats
// every node as valid, making the call identical to Relative. Non-finite
// measurements on valid nodes are rejected with ErrInvalidMeasurement.
func RelativeMasked(ms []Measurement, w Weights, valid []bool) ([]float64, error) {
	if len(ms) == 0 {
		return nil, errNoNodes
	}
	if valid != nil && len(valid) != len(ms) {
		return nil, fmt.Errorf("capacity: validity mask has %d entries for %d nodes", len(valid), len(ms))
	}
	if err := w.validate(); err != nil {
		return nil, err
	}
	ok := func(k int) bool { return valid == nil || valid[k] }
	nValid := 0
	var totP, totM, totB float64
	for k, m := range ms {
		if !ok(k) {
			continue
		}
		if !m.Finite() {
			return nil, fmt.Errorf("capacity: node %d measurement %+v: %w", k, m, errInvalidMeasurement)
		}
		nValid++
		totP += math.Max(m.CPUAvail, 0)
		totM += math.Max(m.FreeMemoryMB, 0)
		totB += math.Max(m.BandwidthMBps, 0)
	}
	if nValid == 0 {
		return nil, fmt.Errorf("capacity: every node masked out: %w", errDegenerate)
	}
	// A resource that is zero everywhere carries no information; fold its
	// weight into the others when possible, else fail.
	wp, wm, wb := w.CPU, w.Memory, w.Bandwidth
	redistribute := func(dead *float64, live ...*float64) {
		sum := 0.0
		for _, l := range live {
			sum += *l
		}
		if sum <= 0 {
			return
		}
		for _, l := range live {
			*l += *dead * *l / sum
		}
		*dead = 0
	}
	if totP <= 0 {
		redistribute(&wp, &wm, &wb)
	}
	if totM <= 0 {
		redistribute(&wm, &wp, &wb)
	}
	if totB <= 0 {
		redistribute(&wb, &wp, &wm)
	}
	if wp+wm+wb <= 0 || (totP <= 0 && totM <= 0 && totB <= 0) {
		return nil, errDegenerate
	}
	caps := make([]float64, len(ms))
	for k, m := range ms {
		if !ok(k) {
			continue
		}
		var c float64
		if totP > 0 {
			c += wp * math.Max(m.CPUAvail, 0) / totP
		}
		if totM > 0 {
			c += wm * math.Max(m.FreeMemoryMB, 0) / totM
		}
		if totB > 0 {
			c += wb * math.Max(m.BandwidthMBps, 0) / totB
		}
		caps[k] = c
	}
	// Renormalize against accumulated floating-point error so Σ C_k = 1.
	sum := 0.0
	for _, c := range caps {
		sum += c
	}
	if sum <= 0 {
		return nil, errDegenerate
	}
	for k := range caps {
		caps[k] /= sum
	}
	return caps, nil
}

// Shares converts relative capacities into per-node work targets
// L_k = C_k · L for a total load L.
func Shares(caps []float64, totalWork float64) []float64 {
	out := make([]float64, len(caps))
	for k, c := range caps {
		out[k] = c * totalWork
	}
	return out
}

// Imbalance returns the paper's load-imbalance metric for node k,
// I_k = |W_k − L_k| / L_k · 100%, given the assigned work W and the ideal
// share L. It returns +Inf for a zero ideal share with non-zero assignment.
func Imbalance(assigned, ideal float64) float64 {
	if ideal == 0 {
		if assigned == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(assigned-ideal) / ideal * 100
}

// MaxImbalance returns the maximum I_k over the cluster.
func MaxImbalance(assigned, ideal []float64) float64 {
	max := 0.0
	for k := range assigned {
		if v := Imbalance(assigned[k], ideal[k]); v > max {
			max = v
		}
	}
	return max
}
