package capacity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestWeightsValidate(t *testing.T) {
	for _, w := range []Weights{EqualWeights(), ComputeBiased(), MemoryBiased(), CommBiased()} {
		if err := w.validate(); err != nil {
			t.Errorf("preset %+v invalid: %v", w, err)
		}
	}
	bad := []Weights{
		{CPU: 0.5, Memory: 0.5, Bandwidth: 0.5},
		{CPU: -0.1, Memory: 0.6, Bandwidth: 0.5},
		{},
	}
	for _, w := range bad {
		if err := w.validate(); err == nil {
			t.Errorf("weights %+v accepted", w)
		}
	}
}

func TestRelativePaperExample(t *testing.T) {
	// The paper's four-node example: two loaded machines yield capacities
	// ~16%, 19%, 31%, 34% with equal weights. Reconstruct measurements
	// that produce that distribution: each resource proportional to the
	// target capacity.
	target := []float64{0.16, 0.19, 0.31, 0.34}
	ms := make([]Measurement, 4)
	for k, c := range target {
		ms[k] = Measurement{CPUAvail: c, FreeMemoryMB: c * 256, BandwidthMBps: c * 12.5}
	}
	caps, err := Relative(ms, EqualWeights())
	if err != nil {
		t.Fatal(err)
	}
	for k := range caps {
		if !almostEqual(caps[k], target[k]) {
			t.Errorf("C_%d = %.4f, want %.4f", k, caps[k], target[k])
		}
	}
}

func TestRelativeSumsToOne(t *testing.T) {
	ms := []Measurement{
		{CPUAvail: 0.9, FreeMemoryMB: 120, BandwidthMBps: 12.5},
		{CPUAvail: 0.3, FreeMemoryMB: 200, BandwidthMBps: 6.0},
		{CPUAvail: 0.6, FreeMemoryMB: 80, BandwidthMBps: 12.5},
	}
	caps, err := Relative(ms, ComputeBiased())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, c := range caps {
		sum += c
	}
	if !almostEqual(sum, 1) {
		t.Errorf("sum = %.12f", sum)
	}
}

func TestRelativeHomogeneousIsEqual(t *testing.T) {
	ms := make([]Measurement, 5)
	for k := range ms {
		ms[k] = Measurement{CPUAvail: 1, FreeMemoryMB: 256, BandwidthMBps: 12.5}
	}
	caps, _ := Relative(ms, EqualWeights())
	for _, c := range caps {
		if !almostEqual(c, 0.2) {
			t.Errorf("homogeneous capacity = %g, want 0.2", c)
		}
	}
}

func TestRelativeWeightSensitivity(t *testing.T) {
	// Node 0 has all the CPU, node 1 has all the memory; CPU-biased weights
	// must favour node 0, memory-biased node 1.
	ms := []Measurement{
		{CPUAvail: 1.0, FreeMemoryMB: 10, BandwidthMBps: 10},
		{CPUAvail: 0.1, FreeMemoryMB: 250, BandwidthMBps: 10},
	}
	cpu, _ := Relative(ms, ComputeBiased())
	mem, _ := Relative(ms, MemoryBiased())
	if cpu[0] <= cpu[1] {
		t.Errorf("compute-biased should favour node 0: %v", cpu)
	}
	if mem[1] <= mem[0] {
		t.Errorf("memory-biased should favour node 1: %v", mem)
	}
}

func TestRelativeErrors(t *testing.T) {
	if _, err := Relative(nil, EqualWeights()); err != errNoNodes {
		t.Errorf("empty err = %v", err)
	}
	if _, err := Relative([]Measurement{{}}, EqualWeights()); err != errDegenerate {
		t.Errorf("degenerate err = %v", err)
	}
	if _, err := Relative([]Measurement{{CPUAvail: 1}}, Weights{CPU: 2}); err == nil {
		t.Error("invalid weights accepted")
	}
}

func TestRelativeDeadResourceRedistributed(t *testing.T) {
	// Bandwidth reported zero everywhere (e.g. sensor outage): its weight
	// folds into CPU/memory instead of silently dropping a third of the
	// metric.
	ms := []Measurement{
		{CPUAvail: 0.8, FreeMemoryMB: 100, BandwidthMBps: 0},
		{CPUAvail: 0.2, FreeMemoryMB: 100, BandwidthMBps: 0},
	}
	caps, err := Relative(ms, EqualWeights())
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(caps[0]+caps[1], 1) {
		t.Error("capacities do not sum to 1 with a dead resource")
	}
	// CPU dominance must still show through (0.5 weight on CPU now).
	if caps[0] <= caps[1] {
		t.Errorf("node 0 should dominate: %v", caps)
	}
}

func TestRelativeNegativeClamped(t *testing.T) {
	ms := []Measurement{
		{CPUAvail: -0.5, FreeMemoryMB: 100, BandwidthMBps: 10},
		{CPUAvail: 0.5, FreeMemoryMB: 100, BandwidthMBps: 10},
	}
	caps, err := Relative(ms, EqualWeights())
	if err != nil {
		t.Fatal(err)
	}
	if caps[0] < 0 || caps[0] > caps[1] {
		t.Errorf("negative measurement handled wrong: %v", caps)
	}
}

func TestShares(t *testing.T) {
	caps := []float64{0.16, 0.19, 0.31, 0.34}
	shares := Shares(caps, 1000)
	want := []float64{160, 190, 310, 340}
	for k := range want {
		if !almostEqual(shares[k], want[k]) {
			t.Errorf("share %d = %g, want %g", k, shares[k], want[k])
		}
	}
}

func TestImbalance(t *testing.T) {
	if got := Imbalance(120, 100); !almostEqual(got, 20) {
		t.Errorf("Imbalance = %g, want 20", got)
	}
	if got := Imbalance(80, 100); !almostEqual(got, 20) {
		t.Errorf("Imbalance = %g, want 20", got)
	}
	if got := Imbalance(0, 0); got != 0 {
		t.Errorf("0/0 imbalance = %g", got)
	}
	if !math.IsInf(Imbalance(10, 0), 1) {
		t.Error("nonzero/0 should be +Inf")
	}
	if got := MaxImbalance([]float64{110, 90}, []float64{100, 100}); !almostEqual(got, 10) {
		t.Errorf("MaxImbalance = %g", got)
	}
}

func TestQuickRelativeInvariants(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + int(n)%16
		ms := make([]Measurement, k)
		for i := range ms {
			ms[i] = Measurement{
				CPUAvail:      r.Float64(),
				FreeMemoryMB:  r.Float64() * 256,
				BandwidthMBps: 1 + r.Float64()*11.5,
			}
		}
		caps, err := Relative(ms, EqualWeights())
		if err != nil {
			return false
		}
		sum := 0.0
		for _, c := range caps {
			if c < 0 || c > 1 {
				return false
			}
			sum += c
		}
		return almostEqual(sum, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
