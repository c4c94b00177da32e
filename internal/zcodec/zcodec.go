// Package zcodec implements the numeric block codecs of PGIOP wire
// compression: a Gorilla-style XOR codec for float64
// blocks and a zig-zag varint delta-of-delta codec for integer blocks.
//
// Both codecs target the smooth numeric payloads that dominate
// dsequence streaming: consecutive values whose bit patterns (floats)
// or magnitudes (integers) change slowly, so most of each 8-byte value
// is redundant. The encoded layout is byte-order independent (an
// explicit bit stream), so compressed chunks need no CDR order octet.
//
// Encoders append to a caller-supplied buffer and never allocate when
// the buffer has capacity; decoders are strict — truncated or corrupt
// blocks return an error, never panic, and never allocate more than
// the caller-supplied element bound.
package zcodec

import (
	"encoding/binary"
	"fmt"
)

// ID identifies one codec on the wire (one octet in the compressed
// chunk envelope and in wiredump output).
type ID uint8

const (
	// None means the chunk is not compressed.
	None ID = 0
	// Delta is the zig-zag varint delta-of-delta codec for integer blocks.
	Delta ID = 1
	// XOR is the Gorilla-style XOR codec for float64 blocks.
	XOR ID = 2
)

// String returns the codec's wire name.
func (id ID) String() string {
	switch id {
	case None:
		return "none"
	case Delta:
		return "delta"
	case XOR:
		return "xor"
	default:
		return fmt.Sprintf("codec(%d)", uint8(id))
	}
}

// Codec bitmask: the codecs a sender may compress with, one bit per codec.
const (
	MaskDelta uint8 = 1 << 0
	MaskXOR   uint8 = 1 << 1
	MaskAll         = MaskDelta | MaskXOR
)

// Supported is the mask this build encodes and decodes: every codec.
const Supported = MaskAll

// HasCodec reports whether mask admits the given codec.
func HasCodec(mask uint8, id ID) bool {
	switch id {
	case Delta:
		return mask&MaskDelta != 0
	case XOR:
		return mask&MaskXOR != 0
	default:
		return false
	}
}

// ParseMask parses a user-facing codec selection ("off", "delta",
// "xor", "all"/"auto") into a support mask.
func ParseMask(s string) (uint8, error) {
	switch s {
	case "", "off", "none":
		return 0, nil
	case "delta":
		return MaskDelta, nil
	case "xor":
		return MaskXOR, nil
	case "all", "auto", "always":
		return Supported, nil
	default:
		return 0, fmt.Errorf("zcodec: unknown codec %q (want off, delta, xor, or all)", s)
	}
}

// MaskString renders a support mask for logs and wiredump output.
func MaskString(mask uint8) string {
	switch mask {
	case 0:
		return "off"
	case MaskDelta:
		return "delta"
	case MaskXOR:
		return "xor"
	case MaskAll:
		return "all"
	default:
		return fmt.Sprintf("mask(0x%02x)", mask)
	}
}

// Policy selects how a sender's codec mask is applied per transfer leg.
// The zero value is Auto.
type Policy uint8

const (
	// PolicyAuto compresses only when the bandwidth/throughput
	// estimator predicts a net win (see CompressionWins).
	PolicyAuto Policy = iota
	// PolicyAlways compresses whenever the mask has a codec.
	PolicyAlways
)

// String returns the policy's user-facing name.
func (p Policy) String() string {
	switch p {
	case PolicyAuto:
		return "auto"
	case PolicyAlways:
		return "always"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// ParseMode parses a user-facing compression mode into a (mask,
// policy) pair: "off" is the empty mask (nothing is offered or accepted, so
// the policy never comes up), codec names ("delta", "xor", "all") pin
// PolicyAlways (naming a codec asks for it) and "auto" enables every codec
// under the adaptive policy.
func ParseMode(s string) (uint8, Policy, error) {
	mask, err := ParseMask(s)
	if err != nil || mask == 0 || s == "auto" {
		return mask, PolicyAuto, err
	}
	return mask, PolicyAlways, nil
}

// Errors returned by the decoders. Both are deliberately values (not
// wrapped per call) so hot decode paths stay allocation-free.
var (
	ErrTruncated = fmt.Errorf("zcodec: truncated block")
	ErrCorrupt   = fmt.Errorf("zcodec: corrupt block")
	ErrTooLarge  = fmt.Errorf("zcodec: block element count exceeds bound")
	ErrCount     = fmt.Errorf("zcodec: block element count mismatch")
)

// MaxBlockElems bounds the element count BlockCount and the decoders
// accept; it caps what a corrupt header can make a receiver that sizes its
// destination by BlockCount allocate.
const MaxBlockElems = 1 << 27

// BlockCount reads the element count every encoded block leads with,
// without decoding the body.
func BlockCount(src []byte) (int, error) {
	c, k := binary.Uvarint(src)
	if k <= 0 {
		return 0, ErrTruncated
	}
	if c > MaxBlockElems {
		return 0, ErrTooLarge
	}
	return int(c), nil
}

// DoublesBound returns the largest possible encoded size of an n-element
// float64 block: the count varint plus a worst case of 78 bits per value
// (2 control bits, 12 window bits, 64 payload bits).
func DoublesBound(n int) int { return 10 + 10*n }

// Int64sBound returns the largest possible encoded size of an n-element
// int64 block (10-byte varints throughout).
func Int64sBound(n int) int { return 10 + 10*n }

// Int32sBound returns the largest possible encoded size of an n-element
// int32 block (delta-of-delta of int32 values fits 5-byte varints).
func Int32sBound(n int) int { return 10 + 5*n }
