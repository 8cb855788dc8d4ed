package capacity

import (
	"errors"
	"math"
	"testing"
)

func TestRelativeRejectsNonFinite(t *testing.T) {
	bad := []Measurement{
		{CPUAvail: math.NaN(), FreeMemoryMB: 100, BandwidthMBps: 10},
		{CPUAvail: 0.5, FreeMemoryMB: math.Inf(1), BandwidthMBps: 10},
		{CPUAvail: 0.5, FreeMemoryMB: 100, BandwidthMBps: math.Inf(-1)},
	}
	good := Measurement{CPUAvail: 0.5, FreeMemoryMB: 100, BandwidthMBps: 10}
	for i, m := range bad {
		caps, err := Relative([]Measurement{good, m}, EqualWeights())
		if !errors.Is(err, errInvalidMeasurement) {
			t.Errorf("case %d: err = %v, want ErrInvalidMeasurement", i, err)
		}
		if caps != nil {
			t.Errorf("case %d: capacities returned alongside error", i)
		}
	}
}

func TestRelativeNoNaNPropagation(t *testing.T) {
	// The regression this PR fixes: math.Max(NaN, 0) = NaN used to poison
	// the totals silently; every capacity came out NaN and still "summed"
	// through the partitioner. Now the same input is a typed error.
	ms := []Measurement{
		{CPUAvail: 0.5, FreeMemoryMB: 100, BandwidthMBps: 10},
		{CPUAvail: math.NaN(), FreeMemoryMB: math.NaN(), BandwidthMBps: math.NaN()},
	}
	caps, err := Relative(ms, EqualWeights())
	if err == nil {
		for _, c := range caps {
			if math.IsNaN(c) {
				t.Fatal("NaN capacity propagated without error")
			}
		}
		t.Fatal("non-finite measurements accepted")
	}
}

func TestRelativeMaskedExcludesAndRenormalizes(t *testing.T) {
	ms := []Measurement{
		{CPUAvail: 0.5, FreeMemoryMB: 100, BandwidthMBps: 10},
		{CPUAvail: math.NaN(), FreeMemoryMB: -5, BandwidthMBps: math.Inf(1)}, // dead sensor
		{CPUAvail: 0.5, FreeMemoryMB: 100, BandwidthMBps: 10},
	}
	caps, err := RelativeMasked(ms, EqualWeights(), []bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if caps[1] != 0 {
		t.Errorf("masked node capacity = %g, want 0", caps[1])
	}
	if !almostEqual(caps[0]+caps[2], 1) {
		t.Errorf("survivors not renormalized: %v", caps)
	}
	if !almostEqual(caps[0], caps[2]) {
		t.Errorf("identical survivors should split evenly: %v", caps)
	}
}

func TestRelativeMaskedNilMaskMatchesRelative(t *testing.T) {
	ms := []Measurement{
		{CPUAvail: 0.3, FreeMemoryMB: 120, BandwidthMBps: 12},
		{CPUAvail: 0.9, FreeMemoryMB: 40, BandwidthMBps: 8},
		{CPUAvail: 0.6, FreeMemoryMB: 80, BandwidthMBps: 10},
	}
	a, err := Relative(ms, ComputeBiased())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RelativeMasked(ms, ComputeBiased(), []bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	for k := range a {
		if a[k] != b[k] {
			t.Errorf("node %d: all-true mask diverges: %g vs %g", k, a[k], b[k])
		}
	}
}

func TestRelativeMaskedErrors(t *testing.T) {
	ms := []Measurement{{CPUAvail: 1}, {CPUAvail: 1}}
	if _, err := RelativeMasked(ms, EqualWeights(), []bool{true}); err == nil {
		t.Error("mask length mismatch accepted")
	}
	if _, err := RelativeMasked(ms, EqualWeights(), []bool{false, false}); !errors.Is(err, errDegenerate) {
		t.Errorf("all-masked err = %v, want ErrDegenerate", err)
	}
	// A non-finite value on a masked-out node must not trip the check.
	ms[1].CPUAvail = math.NaN()
	caps, err := RelativeMasked(ms, EqualWeights(), []bool{true, false})
	if err != nil {
		t.Fatalf("masked-out NaN rejected: %v", err)
	}
	if !almostEqual(caps[0], 1) {
		t.Errorf("sole survivor capacity = %g, want 1", caps[0])
	}
}
