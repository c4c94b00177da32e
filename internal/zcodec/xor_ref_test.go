package zcodec

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// The reference XOR codec: the original bit-at-a-time implementation, kept
// as the oracle the word-at-a-time AppendDoubles / DecodeDoublesInto must
// match byte for byte and error for error (FuzzXORMatchesReference,
// TestXORMatchesReferenceBytes). It writes one byte per append and reads
// one control bit per call, so it is slow and plain on purpose.

// refAppendDoubles is the reference encoder: AppendDoubles without the
// ledgers.
func refAppendDoubles(dst []byte, vals []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	if len(vals) == 0 {
		return dst
	}
	w := refBitWriter{buf: dst}
	prev := math.Float64bits(vals[0])
	w.write(prev, 64)
	lead, sig := uint(0xff), uint(0) // invalid window: first XOR opens one
	for _, v := range vals[1:] {
		cur := math.Float64bits(v)
		x := cur ^ prev
		prev = cur
		if x == 0 {
			w.write(0, 1)
			continue
		}
		l := uint(bits.LeadingZeros64(x))
		if l > 63 {
			l = 63
		}
		t := uint(bits.TrailingZeros64(x))
		s := 64 - l - t
		if lead != 0xff && l >= lead && t >= 64-lead-sig {
			w.write(2, 2)
			w.write(x>>(64-lead-sig), sig)
			continue
		}
		lead, sig = l, s
		w.write(3, 2)
		w.write(uint64(l), 6)
		w.write(uint64(s-1), 6)
		w.write(x>>t, s)
	}
	return w.finish()
}

// refDecodeDoubles is the reference decoder: decodeBlock over
// DecodeDoublesInto, with the same header checks, over the bit-at-a-time body
// decoder.
func refDecodeDoubles(src []byte, most int) ([]float64, error) {
	n, err := BlockCount(src)
	if err == nil && n > most {
		err = ErrTooLarge
	}
	if err != nil {
		return nil, err
	}
	dst := make([]float64, n)
	if err := refDecodeDoublesBody(dst, src); err != nil {
		return nil, err
	}
	return dst, nil
}

func refDecodeDoublesBody(dst []float64, src []byte) error {
	_, k := binary.Uvarint(src)
	if len(dst) == 0 {
		if k != len(src) {
			return ErrCorrupt
		}
		return nil
	}
	r := refBitReader{buf: src[k:]}
	prev, err := r.read(64)
	if err != nil {
		return err
	}
	dst[0] = math.Float64frombits(prev)
	lead, sig := uint(0), uint(0)
	haveWindow := false
	for i := 1; i < len(dst); i++ {
		b, err := r.read(1)
		if err != nil {
			return err
		}
		if b == 0 {
			dst[i] = math.Float64frombits(prev)
			continue
		}
		if b, err = r.read(1); err != nil {
			return err
		}
		if b == 1 {
			l, err := r.read(6)
			if err != nil {
				return err
			}
			s, err := r.read(6)
			if err != nil {
				return err
			}
			lead, sig = uint(l), uint(s)+1
			haveWindow = true
			if lead+sig > 64 {
				return ErrCorrupt
			}
		} else if !haveWindow {
			return ErrCorrupt
		}
		m, err := r.read(sig)
		if err != nil {
			return err
		}
		prev ^= m << (64 - lead - sig)
		dst[i] = math.Float64frombits(prev)
	}
	if k+r.pos != len(src) {
		return ErrCorrupt
	}
	return nil
}

// refBitWriter appends an MSB-first bit stream to a byte slice.
type refBitWriter struct {
	buf []byte
	acc uint64
	n   uint // valid low-order bits in acc, always < 8 after write
}

// write appends the low `bits` bits of v, most significant first.
func (w *refBitWriter) write(v uint64, bits uint) {
	if bits > 32 {
		w.write(v>>32, bits-32)
		v &= 0xffffffff
		bits = 32
	}
	w.acc = w.acc<<bits | v&(uint64(1)<<bits-1)
	w.n += bits
	for w.n >= 8 {
		w.n -= 8
		w.buf = append(w.buf, byte(w.acc>>w.n))
	}
}

// finish flushes any partial byte (zero padded) and returns the buffer.
func (w *refBitWriter) finish() []byte {
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.acc<<(8-w.n)))
	}
	return w.buf
}

// refBitReader consumes an MSB-first bit stream.
type refBitReader struct {
	buf []byte
	pos int
	acc uint64
	n   uint
}

// read returns the next `bits` bits, or ErrTruncated past the end.
func (r *refBitReader) read(bits uint) (uint64, error) {
	if bits > 32 {
		hi, err := r.read(bits - 32)
		if err != nil {
			return 0, err
		}
		lo, err := r.read(32)
		if err != nil {
			return 0, err
		}
		return hi<<32 | lo, nil
	}
	for r.n < bits {
		if r.pos >= len(r.buf) {
			return 0, ErrTruncated
		}
		r.acc = r.acc<<8 | uint64(r.buf[r.pos])
		r.pos++
		r.n += 8
	}
	r.n -= bits
	return r.acc >> r.n & (uint64(1)<<bits - 1), nil
}
