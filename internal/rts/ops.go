package rts

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file provides typed views over the []byte message payloads: slice
// codecs for the numeric types PARDIS arguments use, and the elementwise
// float64 sum Allreduce takes.

// Float64sToBytes encodes a []float64 as little-endian IEEE 754 bytes.
func Float64sToBytes(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(f))
	}
	return out
}

// BytesToFloat64s decodes a payload produced by Float64sToBytes.
func BytesToFloat64s(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("rts: float64 payload length %d not a multiple of 8", len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// Int64sToBytes encodes a []int64 as little-endian bytes.
func Int64sToBytes(v []int64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

// BytesToInt64s decodes a payload produced by Int64sToBytes.
func BytesToInt64s(b []byte) ([]int64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("rts: int64 payload length %d not a multiple of 8", len(b))
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// SumFloat64 adds two float64 vectors elementwise: the ReduceFunc of a
// global sum.
func SumFloat64(a, b []byte) ([]byte, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("%w: reduce operands %d vs %d bytes", ErrSizes, len(a), len(b))
	}
	av, err := BytesToFloat64s(a)
	if err != nil {
		return nil, err
	}
	bv, err := BytesToFloat64s(b)
	if err != nil {
		return nil, err
	}
	for i := range av {
		av[i] += bv[i]
	}
	return Float64sToBytes(av), nil
}
