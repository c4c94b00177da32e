package zcodec

import (
	"encoding/binary"
	"math"
	"math/bits"
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
// the extended slice. It allocates only if dst lacks capacity.
func AppendDoubles(dst []byte, vals []float64) []byte {
	t0 := time.Now()
	start := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	if len(vals) == 0 {
		return dst
	}
	w := bitWriter{buf: dst}
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
			// Previous window still covers the meaningful bits.
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
	out := w.finish()
	statEncode(8*len(vals), len(out)-start, time.Since(t0))
	return out
}

// DecodeDoublesInto decodes a block produced by AppendDoubles into
// dst, whose length must equal the encoded element count. src must be
// exactly the block: a byte after its last element is ErrCorrupt.
func DecodeDoublesInto(dst []float64, src []byte) error {
	n, err := decodeDoublesHeader(src, MaxBlockElems)
	if err != nil {
		return err
	}
	if n != len(dst) {
		return ErrCount
	}
	return decodeDoublesBody(dst, src)
}

// DecodeDoubles decodes a block produced by AppendDoubles, allocating
// the result. maxElems bounds the accepted element count (pass
// MaxBlockElems when no tighter bound is known).
func DecodeDoubles(src []byte, maxElems int) ([]float64, error) {
	n, err := decodeDoublesHeader(src, maxElems)
	if err != nil {
		return nil, err
	}
	dst := make([]float64, n)
	if err := decodeDoublesBody(dst, src); err != nil {
		return nil, err
	}
	return dst, nil
}

func decodeDoublesHeader(src []byte, maxElems int) (int, error) {
	c, k := binary.Uvarint(src)
	if k <= 0 {
		return 0, ErrTruncated
	}
	if c > uint64(maxElems) || c > MaxBlockElems {
		return 0, ErrTooLarge
	}
	return int(c), nil
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
	r := bitReader{buf: src[k:]}
	bitsv, err := r.read(64)
	if err != nil {
		return err
	}
	prev := bitsv
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
		b, err = r.read(1)
		if err != nil {
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
	statDecode(8*len(dst), len(src), time.Since(t0))
	return nil
}
