package cdr

import "unsafe"

// Native-order block fast paths.
//
// CDR's receiver-makes-right rule means that in the common case — both peers
// little-endian, as all current benchmark hardware is — the bytes of a
// sequence<double> on the wire are exactly the bytes of the []float64 in
// memory. The encoders and decoders below exploit that: when the stream's
// byte order matches the machine's, a block transfer is a single memcpy of
// the backing array instead of a per-element load/convert/store loop. When
// the orders differ (a big-endian peer, or a test forcing the cross-order
// path), the existing per-element loops run unchanged, so heterogeneous
// interop is untouched.
//
// The unsafe.Slice views are byte views of numeric slices used only as
// memcpy operands within a single call; they never escape, are never
// retained, and never produce unaligned numeric loads (the numeric side of
// every copy is a real []float64/[]int32).

// hostOrder is the byte order of this machine's memory representation,
// probed once at init.
var hostOrder = func() ByteOrder {
	var x uint16 = 1
	if *(*byte)(unsafe.Pointer(&x)) == 1 {
		return LittleEndian
	}
	return BigEndian
}()

// HostOrder returns the machine's native memory byte order. Streams in this
// order take the block memcpy fast paths; others fall back to per-element
// conversion.
func HostOrder() ByteOrder { return hostOrder }

// HostBytes views v's backing array as raw bytes in host order. Beyond the
// block fast paths here, distributed-sequence transfers use it to move a
// rank's share of a fixed-width chunk as a byte sub-range.
func HostBytes[T float64 | int32 | int64](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*int(unsafe.Sizeof(v[0])))
}
