package transport

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendFloats appends vals to dst as raw little-endian IEEE-754 words —
// the wire format of ghost-region and redistribution payloads — and
// returns the extended buffer. It is bit-exact, allocation-minimal (one
// output buffer, no reflection) and about an order of magnitude cheaper than
// gob on the per-step exchange path; gob remains in use for structured
// control messages (assignments, checkpoints). Hot paths pass a pooled
// dst[:0] so the steady-state send side allocates nothing (Send permits
// buffer reuse as soon as it returns).
func AppendFloats(dst []byte, vals []float64) []byte {
	off := len(dst)
	need := off + 8*len(vals)
	if cap(dst) < need {
		grown := make([]byte, off, need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:need]
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[off+8*i:], math.Float64bits(v))
	}
	return dst
}

// DecodeFloats deserializes an AppendFloats payload, reusing dst's capacity
// when it suffices (pass nil to allocate). The decoded slice is returned.
func DecodeFloats(payload []byte, dst []float64) ([]float64, error) {
	if len(payload)%8 != 0 {
		return nil, fmt.Errorf("%w: float payload length %d not a multiple of 8", ErrMalformed, len(payload))
	}
	n := len(payload) / 8
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return dst, nil
}
