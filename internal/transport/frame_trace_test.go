package transport

import (
	"encoding/binary"
	"errors"
	"testing"
)

// TestFrameTraceCtxRoundTrip proves a traced frame carries its context
// losslessly and decodes to the same regions and values as the legacy
// encoding of the same data.
func TestFrameTraceCtxRoundTrip(t *testing.T) {
	regions := []FrameRegion{
		{Dst: 3, Src: 1, Lo: [3]int32{-2, 0, 0}, Hi: [3]int32{4, 8, 0}, Count: 3},
		{Dst: 0, Src: 2, Lo: [3]int32{0, 0, 0}, Hi: [3]int32{1, 1, 1}, Count: 2},
	}
	vals := []float64{1.5, -2.25, 3, 4, 5}
	tc := TraceCtx{Iter: 120, Epoch: 2, SendNS: 1234567890123}

	plain := AppendFrame(nil, regions, vals)
	traced := AppendFrameCtx(nil, regions, vals, &tc)
	if len(traced) != len(plain)+traceCtxSize {
		t.Fatalf("traced frame is %d bytes, want plain %d + %d", len(traced), len(plain), traceCtxSize)
	}

	gotR, gotV, gotTC, isTraced, err := DecodeFrameCtx(traced, nil, nil)
	if err != nil {
		t.Fatalf("DecodeFrameCtx: %v", err)
	}
	if !isTraced || gotTC != tc {
		t.Fatalf("context: traced=%v tc=%+v, want %+v", isTraced, gotTC, tc)
	}
	if len(gotR) != len(regions) || len(gotV) != len(vals) {
		t.Fatalf("decoded %d regions / %d vals, want %d / %d", len(gotR), len(gotV), len(regions), len(vals))
	}
	for i := range regions {
		if gotR[i] != regions[i] {
			t.Fatalf("region %d: %+v != %+v", i, gotR[i], regions[i])
		}
	}
	for i := range vals {
		if gotV[i] != vals[i] {
			t.Fatalf("val %d: %v != %v", i, gotV[i], vals[i])
		}
	}

	// The legacy decoder accepts the traced frame and drops the context.
	gotR2, gotV2, err := DecodeFrame(traced, nil, nil)
	if err != nil {
		t.Fatalf("DecodeFrame on traced frame: %v", err)
	}
	if len(gotR2) != len(regions) || len(gotV2) != len(vals) {
		t.Fatalf("legacy decode shape mismatch")
	}

	// An untraced frame reports traced=false and a zero context.
	_, _, zeroTC, isTraced2, err := DecodeFrameCtx(plain, nil, nil)
	if err != nil {
		t.Fatalf("DecodeFrameCtx on plain frame: %v", err)
	}
	if isTraced2 || zeroTC != (TraceCtx{}) {
		t.Fatalf("plain frame decoded as traced")
	}
}

// TestStampTraceCtx covers the in-place send-time patch: it rewrites only
// the SendNS field of a traced frame and refuses untraced or short buffers.
func TestStampTraceCtx(t *testing.T) {
	regions := []FrameRegion{{Count: 1}}
	vals := []float64{42}
	frame := AppendFrameCtx(nil, regions, vals, &TraceCtx{Iter: 5, Epoch: 1})
	if !StampTraceCtx(frame, 777) {
		t.Fatalf("StampTraceCtx refused a traced frame")
	}
	_, _, tc, traced, err := DecodeFrameCtx(frame, nil, nil)
	if err != nil || !traced {
		t.Fatalf("decode after stamp: traced=%v err=%v", traced, err)
	}
	if tc != (TraceCtx{Iter: 5, Epoch: 1, SendNS: 777}) {
		t.Fatalf("stamped context = %+v", tc)
	}

	plain := AppendFrame(nil, regions, vals)
	if StampTraceCtx(plain, 777) {
		t.Fatalf("StampTraceCtx accepted an untraced frame")
	}
	if StampTraceCtx(plain[:3], 777) {
		t.Fatalf("StampTraceCtx accepted a 3-byte buffer")
	}
}

// TestDecodeFrameCtxTruncated proves a frame that claims a trace context but
// is cut before the 16 context bytes fails loudly with ErrMalformed.
func TestDecodeFrameCtxTruncated(t *testing.T) {
	b := make([]byte, 4+8) // count word + half a context
	binary.LittleEndian.PutUint32(b, frameTraced)
	if _, _, _, _, err := DecodeFrameCtx(b, nil, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated traced frame: err=%v, want ErrMalformed", err)
	}
}

// TestDecodeTraceCtxLengths sweeps every context length near the fixed size
// in a traced frame with no regions; only exactly 16 bytes is accepted.
func TestDecodeTraceCtxLengths(t *testing.T) {
	for n := 0; n <= 2*traceCtxSize; n++ {
		b := make([]byte, 4+n)
		binary.LittleEndian.PutUint32(b, frameTraced)
		_, _, _, traced, err := DecodeFrameCtx(b, nil, nil)
		if n == traceCtxSize {
			if err != nil || !traced {
				t.Fatalf("len %d: traced=%v err=%v", n, traced, err)
			}
			continue
		}
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("len %d: err=%v, want ErrMalformed", n, err)
		}
	}
}
