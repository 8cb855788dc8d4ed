package capacity

import (
	"errors"
	"math"
	"testing"
)

// FuzzRelative asserts the capacity invariants for arbitrary inputs: finite
// measurements either yield capacities that are finite, non-negative and sum
// to 1, or a typed degenerate error; any NaN/Inf input yields
// ErrInvalidMeasurement and never a capacity vector.
func FuzzRelative(f *testing.F) {
	f.Add(0.5, 100.0, 10.0, 0.8, 200.0, 5.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(-1.0, 1e300, 1e-300, 0.3, -50.0, 12.0)
	f.Add(math.NaN(), 100.0, 10.0, 0.8, 200.0, 5.0)
	f.Add(math.Inf(1), 100.0, 10.0, 0.8, math.Inf(-1), 5.0)
	f.Fuzz(func(t *testing.T, p0, m0, b0, p1, m1, b1 float64) {
		ms := []Measurement{
			{CPUAvail: p0, FreeMemoryMB: m0, BandwidthMBps: b0},
			{CPUAvail: p1, FreeMemoryMB: m1, BandwidthMBps: b1},
		}
		caps, err := Relative(ms, EqualWeights())
		if !ms[0].Finite() || !ms[1].Finite() {
			if !errors.Is(err, errInvalidMeasurement) {
				t.Fatalf("non-finite input: err = %v, want ErrInvalidMeasurement", err)
			}
			if caps != nil {
				t.Fatal("non-finite input produced capacities")
			}
			return
		}
		if err != nil {
			if !errors.Is(err, errDegenerate) {
				t.Fatalf("finite input: unexpected error %v", err)
			}
			return
		}
		sum := 0.0
		for k, c := range caps {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("capacity C_%d = %g is not finite (input %+v)", k, c, ms)
			}
			if c < 0 {
				t.Fatalf("capacity C_%d = %g is negative", k, c)
			}
			sum += c
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("capacities sum to %g, want 1 (input %+v)", sum, ms)
		}
	})
}
