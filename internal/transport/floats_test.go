package transport

import (
	"math"
	"testing"
)

func TestFloatsRoundTrip(t *testing.T) {
	vals := []float64{0, 1, -1, math.Pi, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, math.Copysign(0, -1)}
	payload := AppendFloats(nil, vals)
	if len(payload) != 8*len(vals) {
		t.Fatalf("payload %d bytes, want %d", len(payload), 8*len(vals))
	}
	got, err := DecodeFloats(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Errorf("value %d: %g != %g (bits differ)", i, got[i], vals[i])
		}
	}
	// NaN survives bit-exactly too.
	nan, err := DecodeFloats(AppendFloats(nil, []float64{math.NaN()}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(nan[0]) {
		t.Error("NaN did not round-trip")
	}
}

func TestDecodeFloatsReuse(t *testing.T) {
	payload := AppendFloats(nil, []float64{1, 2, 3})
	buf := make([]float64, 0, 16)
	got, err := DecodeFloats(payload, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("decode did not reuse the provided buffer")
	}
	if len(got) != 3 || got[2] != 3 {
		t.Errorf("decoded %v", got)
	}
	// Empty payload decodes to an empty slice.
	empty, err := DecodeFloats(nil, nil)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty decode: %v, %v", empty, err)
	}
}

func TestDecodeFloatsBadLength(t *testing.T) {
	if _, err := DecodeFloats(make([]byte, 7), nil); err == nil {
		t.Error("7-byte payload accepted")
	}
}
