package zcodec

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"time"
)

// Gorilla-style XOR codec for float64 blocks.
//
// Layout: uvarint element count, then a bit stream. The first value is
// 64 raw bits. Each subsequent value is XORed with its predecessor:
//
//	0                        — identical to predecessor
//	10 <sig bits>            — meaningful bits fit the previous window
//	11 <6:lead> <6:sig-1> <sig bits>
//	                         — new window: leading-zero count and
//	                           significant-bit count, then the bits
//
// Smooth data keeps the window narrow, so most values cost a handful
// of bits instead of 64.

// AppendDoubles appends the encoded block for vals to dst and returns
// the extended slice. It allocates only if dst has less room than
// DoublesBound(len(vals)) past its length.
//
// The stream is built a word at a time: pending bits sit in a 64-bit
// accumulator (acc, n < 32 of them between puts) and every full 32 bits
// are stored as one big-endian word. A stored word holds only stream bits,
// so no store reaches past the DoublesBound room.
func AppendDoubles(dst []byte, vals []float64) []byte {
	t0 := time.Now()
	start := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	if len(vals) == 0 {
		return dst
	}
	b := slices.Grow(dst, start+DoublesBound(len(vals))-len(dst))
	b = b[:cap(b)]
	prev := math.Float64bits(vals[0])
	binary.BigEndian.PutUint64(b[len(dst):], prev)
	p, acc, n := len(dst)+8, uint64(0), uint(0)
	// The open window: sig meaningful bits over mask, sh trailing zeros
	// below them. sig 0 (mask 0) is no window yet.
	sig, sh, mask := uint(0), uint(0), uint64(0)
	for _, f := range vals[1:] {
		cur := math.Float64bits(f)
		x := cur ^ prev
		prev = cur
		// A value is kc control bits c, then k payload bits v.
		var c, v uint64
		var kc, k uint
		switch {
		case x == 0:
			kc = 1
		case x&^mask == 0:
			c, kc, v, k = 2, 2, x>>sh, sig
		default:
			l, t := uint(bits.LeadingZeros64(x)), uint(bits.TrailingZeros64(x))
			sig, sh, mask = 64-l-t, t, ^uint64(0)>>(l+t)<<t
			c, kc, v, k = 3<<12|uint64(l)<<6|uint64(sig-1), 14, x>>t, sig
		}
		if kc+k > 64 { // a window over 51+ bits opened, or 63+ reused
			p, acc, n = put(b, p, acc, n, c, kc)
			c, kc = 0, 0
		}
		v, k = c<<(k&63)|v, kc+k // k is 64 only when c is 0
		if k > 32 {
			p, acc, n = put(b, p, acc, n, v>>32, k-32)
			v, k = v&(1<<32-1), 32
		}
		p, acc, n = put(b, p, acc, n, v, k)
	}
	for w := uint32(acc << (32 - n)); n > 0; n -= min(n, 8) {
		b[p], w = byte(w>>24), w<<8
		p++
	}
	statEncode(8*len(vals), p-start, time.Since(t0))
	return b[:p]
}

// put appends the low k <= 32 bits of v, whose higher bits are zero, to
// the n < 32 pending bits in acc, storing a full 32-bit word at b[p:].
func put(b []byte, p int, acc uint64, n uint, v uint64, k uint) (int, uint64, uint) {
	acc, n = acc<<(k&63)|v, n+k
	if n >= 32 {
		n -= 32
		binary.BigEndian.PutUint32(b[p:], uint32(acc>>(n&63)))
		p += 4
	}
	return p, acc, n
}

// DecodeDoublesInto decodes a block produced by AppendDoubles into
// dst, whose length must equal the encoded element count. src must be
// exactly the block: a byte after its last element is ErrCorrupt.
func DecodeDoublesInto(dst []float64, src []byte) error {
	n, err := BlockCount(src)
	if err != nil {
		return err
	}
	if n != len(dst) {
		return ErrCount
	}
	return decodeDoublesBody(dst, src)
}

func decodeDoublesBody(dst []float64, src []byte) error {
	t0 := time.Now()
	_, k := binary.Uvarint(src)
	if len(dst) == 0 {
		if k != len(src) {
			return ErrCorrupt
		}
		statDecode(0, k, time.Since(t0))
		return nil
	}
	// pos is the stream position in bits. A value is decoded from one
	// 64-bit peek at pos — a second only when its control and payload bits
	// exceed 64 — after one bounds decision: a peek within the last 8 bytes
	// goes byte by byte and reads zeros past the end. A value that ran off
	// the end is caught by where it ends, and a bad window is truncation,
	// not corruption, when its control bits ran off.
	body := src[k:]
	end := 8 * uint(len(body))
	prev, pos := peek(body, 0), uint(64)
	if pos > end {
		return ErrTruncated
	}
	dst[0] = math.Float64frombits(prev)
	lead, sig := uint(0), uint(0) // sig 0: no window open yet
	for i := 1; i < len(dst); i++ {
		var w uint64
		if j := pos >> 3; j+9 <= uint(len(body)) {
			w = binary.BigEndian.Uint64(body[j:])<<(pos&7) | uint64(body[j+8])>>(8-pos&7)
		} else {
			w = peekTail(body, pos)
		}
		if w>>63 == 0 {
			pos++
		} else {
			c := uint(2)
			if w>>62 == 3 {
				c, lead, sig = 14, uint(w>>56&63), uint(w>>50&63)+1
			}
			if sig == 0 || lead+sig > 64 {
				if pos+c > end {
					return ErrTruncated
				}
				return ErrCorrupt
			}
			if c+sig > 64 {
				w = peek(body, pos+c)
			} else {
				w <<= c
			}
			prev ^= w >> ((64 - sig) & 63) << ((64 - lead - sig) & 63)
			pos += c + sig
		}
		if pos > end {
			return ErrTruncated
		}
		dst[i] = math.Float64frombits(prev)
	}
	if (pos+7)/8 != uint(len(body)) {
		return ErrCorrupt
	}
	statDecode(8*len(dst), len(src), time.Since(t0))
	return nil
}

// peek returns the 64 stream bits from bit pos of b on.
func peek(b []byte, pos uint) uint64 {
	if i := pos >> 3; i+9 <= uint(len(b)) {
		return binary.BigEndian.Uint64(b[i:])<<(pos&7) | uint64(b[i+8])>>(8-pos&7)
	}
	return peekTail(b, pos)
}

// peekTail is peek within the last 8 bytes of b: byte by byte, with zeros
// past the end.
func peekTail(b []byte, pos uint) uint64 {
	var t [9]byte
	if i := pos >> 3; i < uint(len(b)) {
		copy(t[:], b[i:])
	}
	return peek(t[:], pos&7)
}
