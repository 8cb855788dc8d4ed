package transport

import (
	"encoding/binary"
	"fmt"
	"math"
)

// FrameRegion describes one packed region inside a coalesced frame: the
// global indexes of the destination and source boxes in the shared
// assignment, the region bounds, and how many float64 values it carries.
// Receivers validate every header against their own communication plan, so
// two ranks disagreeing about the assignment fail loudly instead of applying
// data to the wrong cells.
type FrameRegion struct {
	Dst, Src uint32
	Lo, Hi   [3]int32
	Count    uint32
}

// frameRegionSize is the encoded size of one region header: dst + src +
// 3×lo + 3×hi + count, all 4-byte little-endian words.
const frameRegionSize = 4 + 4 + 12 + 12 + 4

// TraceCtx is the fixed-size distributed-tracing context piggybacked on
// coalesced frames and heartbeats when tracing is on: the sender's
// (iteration, epoch) position and its local clock at send time. The stitcher
// pairs it with the receiver-side arrival record to align per-rank timelines
// without a global clock.
type TraceCtx struct {
	Iter   int32
	Epoch  int32
	SendNS int64
}

// traceCtxSize is the encoded TraceCtx: u32 iter, u32 epoch, u64 sendNS.
const traceCtxSize = 4 + 4 + 8

// frameTraced is the version bit in the leading region-count word of a
// frame. When set, a TraceCtx follows the count word before the region
// headers. Region counts are bounded far below 2^31 by the payload-size
// check, so the bit is unambiguous.
const frameTraced = uint32(1) << 31

// putTraceCtx writes the traceCtxSize-byte encoding of tc to b.
func putTraceCtx(b []byte, tc *TraceCtx) {
	binary.LittleEndian.PutUint32(b[0:], uint32(tc.Iter))
	binary.LittleEndian.PutUint32(b[4:], uint32(tc.Epoch))
	binary.LittleEndian.PutUint64(b[8:], uint64(tc.SendNS))
}

// getTraceCtx reads a TraceCtx from the first traceCtxSize bytes of b.
func getTraceCtx(b []byte) TraceCtx {
	return TraceCtx{
		Iter:   int32(binary.LittleEndian.Uint32(b[0:])),
		Epoch:  int32(binary.LittleEndian.Uint32(b[4:])),
		SendNS: int64(binary.LittleEndian.Uint64(b[8:])),
	}
}

// StampTraceCtx overwrites the SendNS field of a traced frame in place and
// reports whether the frame carried a trace context. Packing and sending are
// separated on the hot path (parallel packers finish well before the serial
// send loop), so the send stamp is patched in at the actual send instant.
func StampTraceCtx(frame []byte, sendNS int64) bool {
	if len(frame) < 4+traceCtxSize || binary.LittleEndian.Uint32(frame)&frameTraced == 0 {
		return false
	}
	binary.LittleEndian.PutUint64(frame[12:], uint64(sendNS))
	return true
}

// AppendFrame appends a coalesced multi-region frame to dst and returns the
// extended buffer: a uint32 region count, the region headers, then every
// region's float64 payload back to back in region order (the AppendFloats
// wire format). The region Counts must sum to len(vals). Hot paths pass
// pooled dst[:0]/regions/vals so the steady-state send side allocates
// nothing (Send permits buffer reuse as soon as it returns).
func AppendFrame(dst []byte, regions []FrameRegion, vals []float64) []byte {
	return AppendFrameCtx(dst, regions, vals, nil)
}

// AppendFrameCtx is AppendFrame with an optional piggybacked trace context.
// When tc is non-nil the version bit is set on the region-count word and the
// 16-byte context is inserted between the count and the region headers; old
// decoders reject such frames loudly (ErrMalformed), current ones return the
// context. A nil tc produces the exact legacy wire format.
func AppendFrameCtx(dst []byte, regions []FrameRegion, vals []float64, tc *TraceCtx) []byte {
	off := len(dst)
	ctxBytes := 0
	if tc != nil {
		ctxBytes = traceCtxSize
	}
	need := off + 4 + ctxBytes + frameRegionSize*len(regions) + 8*len(vals)
	if cap(dst) < need {
		grown := make([]byte, off, need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:need]
	count := uint32(len(regions))
	if tc != nil {
		count |= frameTraced
	}
	binary.LittleEndian.PutUint32(dst[off:], count)
	off += 4
	if tc != nil {
		putTraceCtx(dst[off:], tc)
		off += traceCtxSize
	}
	for _, r := range regions {
		binary.LittleEndian.PutUint32(dst[off:], r.Dst)
		binary.LittleEndian.PutUint32(dst[off+4:], r.Src)
		for d := 0; d < 3; d++ {
			binary.LittleEndian.PutUint32(dst[off+8+4*d:], uint32(r.Lo[d]))
			binary.LittleEndian.PutUint32(dst[off+20+4*d:], uint32(r.Hi[d]))
		}
		binary.LittleEndian.PutUint32(dst[off+32:], r.Count)
		off += frameRegionSize
	}
	for _, v := range vals {
		binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(v))
		off += 8
	}
	return dst
}

// DecodeFrame parses an AppendFrame payload, reusing the capacity of the
// passed slices when it suffices (pass nil to allocate). It verifies the
// declared region counts exactly account for the float payload. Traced
// frames decode too; the context is dropped (use DecodeFrameCtx to keep it).
func DecodeFrame(payload []byte, regions []FrameRegion, vals []float64) ([]FrameRegion, []float64, error) {
	regions, vals, _, _, err := DecodeFrameCtx(payload, regions, vals)
	return regions, vals, err
}

// DecodeFrameCtx parses an AppendFrame/AppendFrameCtx payload. traced
// reports whether the frame carried a trace context (tc is zero otherwise).
func DecodeFrameCtx(payload []byte, regions []FrameRegion, vals []float64) (_ []FrameRegion, _ []float64, tc TraceCtx, traced bool, err error) {
	if len(payload) < 4 {
		return nil, nil, tc, false, fmt.Errorf("%w: frame too short (%d bytes)", ErrMalformed, len(payload))
	}
	count := binary.LittleEndian.Uint32(payload)
	off := 4
	if count&frameTraced != 0 {
		traced = true
		if len(payload) < off+traceCtxSize {
			return nil, nil, TraceCtx{}, false, fmt.Errorf("%w: traced frame %d bytes, want >= %d for trace context",
				ErrMalformed, len(payload), off+traceCtxSize)
		}
		tc = getTraceCtx(payload[off:])
		off += traceCtxSize
	}
	n := int(count &^ frameTraced)
	// The header-byte bound is checked in 64-bit arithmetic before any
	// allocation, so a hostile region count can neither overflow int on a
	// 32-bit platform nor provoke an allocation larger than the payload.
	if int64(len(payload)-off) < int64(n)*frameRegionSize {
		return nil, nil, TraceCtx{}, false, fmt.Errorf("%w: frame with %d regions needs %d header bytes, has %d",
			ErrMalformed, n, int64(n)*frameRegionSize, len(payload)-off)
	}
	if cap(regions) < n {
		regions = make([]FrameRegion, n)
	}
	regions = regions[:n]
	var total int64
	for i := range regions {
		r := &regions[i]
		r.Dst = binary.LittleEndian.Uint32(payload[off:])
		r.Src = binary.LittleEndian.Uint32(payload[off+4:])
		for d := 0; d < 3; d++ {
			r.Lo[d] = int32(binary.LittleEndian.Uint32(payload[off+8+4*d:]))
			r.Hi[d] = int32(binary.LittleEndian.Uint32(payload[off+20+4*d:]))
		}
		r.Count = binary.LittleEndian.Uint32(payload[off+32:])
		total += int64(r.Count)
		off += frameRegionSize
	}
	if int64(len(payload)-off) != 8*total {
		return nil, nil, TraceCtx{}, false, fmt.Errorf("%w: frame declares %d values but carries %d payload bytes",
			ErrMalformed, total, len(payload)-off)
	}
	vals, err = DecodeFloats(payload[off:], vals)
	if err != nil {
		return nil, nil, TraceCtx{}, false, err
	}
	return regions, vals, tc, traced, nil
}
