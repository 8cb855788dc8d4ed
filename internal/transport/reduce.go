package transport

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ReduceOp combines two float64 values in an all-reduce.
type ReduceOp int

// Supported reduction operators.
const (
	ReduceSum ReduceOp = iota
	ReduceMin
	ReduceMax
)

func (op ReduceOp) apply(a, b float64) float64 {
	switch op {
	case ReduceSum:
		return a + b
	case ReduceMin:
		return math.Min(a, b)
	case ReduceMax:
		return math.Max(a, b)
	default:
		panic(fmt.Sprintf("transport: unknown reduce op %d", op))
	}
}

func (op ReduceOp) identity() float64 {
	switch op {
	case ReduceSum:
		return 0
	case ReduceMin:
		return math.Inf(1)
	case ReduceMax:
		return math.Inf(-1)
	default:
		panic(fmt.Sprintf("transport: unknown reduce op %d", op))
	}
}

// AllReduceFloat64 combines one float64 per rank with op and returns the
// result on every rank. Every rank of the group must call it in the same
// collective order. Each value travels as its 8 raw bytes.
func AllReduceFloat64(ep Endpoint, v float64, op ReduceOp) (float64, error) {
	all, err := ep.AllGather(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	if err != nil {
		return 0, err
	}
	acc := op.identity()
	for r, p := range all {
		if len(p) != 8 {
			return 0, fmt.Errorf("%w: all-reduce value of %d bytes from rank %d", ErrMalformed, len(p), r)
		}
		acc = op.apply(acc, math.Float64frombits(binary.LittleEndian.Uint64(p)))
	}
	return acc, nil
}
