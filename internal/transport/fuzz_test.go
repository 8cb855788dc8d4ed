package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

// FuzzReadFrame feeds arbitrary byte streams to the TCP frame reader, as a
// hostile or corrupted peer could. The invariants: it never panics; every
// error but a clean io.EOF at a frame boundary wraps ErrMalformed; every
// accepted frame re-encodes to exactly the bytes it consumed; and it
// allocates at most readBufSize bytes ahead of the bytes that arrive,
// whatever lengths they declare.
func FuzzReadFrame(f *testing.F) {
	frame := func(dst []byte, tag, payload string) []byte {
		return append(appendFrameHeader(dst, tag, len(payload)), payload...)
	}
	f.Add([]byte{})
	f.Add(frame(nil, "e1-gx", ""))
	f.Add(frame(frame(frame(nil, "e1-gx", "halo"), "e1-dt", "12345678"), "e1-gx", "next"))
	f.Add([]byte{1, 0, 0})                                                    // a truncated header
	f.Add(frame(nil, "e1-dt", "1234")[:12])                                   // a truncated payload
	f.Add(appendFrameHeader(nil, "big", maxFrame))                            // declared, never sent
	f.Add(append(appendFrameHeader(nil, "big", 3<<16), make([]byte, 100)...)) // grows, then ends
	f.Add(appendFrameHeader(nil, "huge", math.MaxUint32))
	f.Add(binary.LittleEndian.AppendUint16(make([]byte, 4), maxTag+1))

	br := bufio.NewReaderSize(nil, readBufSize)
	none := func(int) []byte { return nil }
	f.Fuzz(func(t *testing.T, stream []byte) {
		br.Reset(bytes.NewReader(stream))
		tags := make(map[string]string)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		off := 0
		for {
			tag, payload, err := readFrame(br, tags, none)
			if err == io.EOF && off == len(stream) {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrMalformed) {
					t.Fatalf("readFrame error at byte %d does not wrap ErrMalformed: %v", off, err)
				}
				break
			}
			re := frame(nil, tag, string(payload))
			if !bytes.HasPrefix(stream[off:], re) {
				t.Fatalf("frame at byte %d does not re-encode to the bytes it consumed", off)
			}
			off += len(re)
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(readBufSize+8*len(stream)+4096); got > limit {
			t.Fatalf("reading %d bytes allocated %d B, want <= %d B", len(stream), got, limit)
		}
	})
}

// FuzzDecodeFrame feeds arbitrary byte strings to the coalesced-frame
// decoder. The invariants: a malformed payload returns an error wrapping
// ErrMalformed (never a panic), the decoder never allocates past what the
// payload length justifies, and every well-formed AppendFrame output decodes
// back to exactly what was encoded.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0})
	// A declared region count far past the payload length: must be rejected
	// before any allocation proportional to the count.
	huge := make([]byte, 8)
	binary.LittleEndian.PutUint32(huge, math.MaxUint32)
	f.Add(huge)
	// One well-formed single-region frame.
	ok := AppendFrame(nil,
		[]FrameRegion{{Dst: 1, Src: 2, Lo: [3]int32{0, 0, 0}, Hi: [3]int32{1, 1, 0}, Count: 4}},
		[]float64{1, 2, 3, 4})
	f.Add(ok)
	// The same frame truncated mid-payload.
	f.Add(ok[:len(ok)-5])

	// A traced frame (version bit + 16-byte trace context).
	f.Add(AppendFrameCtx(nil,
		[]FrameRegion{{Dst: 1, Src: 2, Hi: [3]int32{1, 1, 0}, Count: 4}},
		[]float64{1, 2, 3, 4}, &TraceCtx{Iter: 7, Epoch: 1, SendNS: 99}))

	f.Fuzz(func(t *testing.T, payload []byte) {
		regions, vals, tc, traced, err := DecodeFrameCtx(payload, nil, nil)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("DecodeFrameCtx error does not wrap ErrMalformed: %v", err)
			}
			return
		}
		// DecodeFrame (the legacy entry point) must accept the same payload.
		if _, _, err2 := DecodeFrame(payload, nil, nil); err2 != nil {
			t.Fatalf("DecodeFrameCtx accepted but DecodeFrame rejected: %v", err2)
		}
		// Allocation cap: the decoded slices cannot exceed what the payload
		// could have carried.
		if len(regions)*frameRegionSize > len(payload) {
			t.Fatalf("decoded %d regions from a %d-byte payload", len(regions), len(payload))
		}
		if len(vals)*8 > len(payload) {
			t.Fatalf("decoded %d floats from a %d-byte payload", len(vals), len(payload))
		}
		// Round-trip: re-encoding (with the context iff one was carried) must
		// reproduce the accepted payload.
		var ctx *TraceCtx
		if traced {
			ctx = &tc
		}
		re := AppendFrameCtx(nil, regions, vals, ctx)
		if string(re) != string(payload) {
			t.Fatalf("accepted payload does not round-trip: %d bytes in, %d bytes out", len(payload), len(re))
		}
	})
}

// FuzzTraceCtx holds the frame's trace-context codec to the frame
// decoder's standard: a traced frame with no regions whose context is any
// length other than exactly 16 bytes wraps ErrMalformed, and every accepted
// context round-trips bit-exactly through AppendFrameCtx.
func FuzzTraceCtx(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 15))
	f.Add(make([]byte, 17))
	f.Add(AppendFrameCtx(nil, nil, nil, &TraceCtx{Iter: 120, Epoch: 3, SendNS: -1})[4:])
	f.Fuzz(func(t *testing.T, ctx []byte) {
		frame := binary.LittleEndian.AppendUint32(nil, frameTraced)
		frame = append(frame, ctx...)
		_, _, tc, traced, err := DecodeFrameCtx(frame, nil, nil)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("DecodeFrameCtx error does not wrap ErrMalformed: %v", err)
			}
			if len(ctx) == traceCtxSize {
				t.Fatalf("rejected a %d-byte context: %v", traceCtxSize, err)
			}
			return
		}
		if len(ctx) != traceCtxSize || !traced {
			t.Fatalf("accepted %d context bytes (traced=%v), want exactly %d", len(ctx), traced, traceCtxSize)
		}
		if re := AppendFrameCtx(nil, nil, nil, &tc); string(re) != string(frame) {
			t.Fatalf("trace context does not round-trip")
		}
	})
}

// FuzzDecodeFloats holds the raw float codec to the same standard.
func FuzzDecodeFloats(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(AppendFloats(nil, []float64{math.Pi, math.Inf(1), 0}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		vals, err := DecodeFloats(payload, nil)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("DecodeFloats error does not wrap ErrMalformed: %v", err)
			}
			return
		}
		if len(vals) != len(payload)/8 {
			t.Fatalf("decoded %d floats from %d bytes", len(vals), len(payload))
		}
	})
}
