package cdr

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

var bothOrders = []ByteOrder{BigEndian, LittleEndian}

func TestPrimitiveRoundTrip(t *testing.T) {
	for _, ord := range bothOrders {
		e := NewEncoder(ord)
		e.WriteOctet(0xAB)
		e.WriteBool(true)
		e.WriteBool(false)
		e.WriteChar('z')
		e.WriteShort(-12345)
		e.WriteUShort(54321)
		e.WriteLong(-2000000000)
		e.WriteULong(4000000000)
		e.WriteLongLong(-9e18)
		e.WriteULongLong(18446744073709551615)
		e.WriteFloat(3.5)
		e.WriteDouble(math.Pi)
		e.WriteString("hello, pardis")
		e.WriteString("")
		e.WriteEnum(7)

		d := NewDecoder(e.Bytes(), ord)
		check := func(name string, got, want any, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s (%v): %v", name, ord, err)
			}
			if got != want {
				t.Fatalf("%s (%v): got %v want %v", name, ord, got, want)
			}
		}
		v1, err := d.ReadOctet()
		check("octet", v1, byte(0xAB), err)
		b1, err := d.ReadBool()
		check("bool true", b1, true, err)
		b2, err := d.ReadBool()
		check("bool false", b2, false, err)
		ch, err := d.ReadChar()
		check("char", ch, byte('z'), err)
		s1, err := d.ReadShort()
		check("short", s1, int16(-12345), err)
		u1, err := d.ReadUShort()
		check("ushort", u1, uint16(54321), err)
		l1, err := d.ReadLong()
		check("long", l1, int32(-2000000000), err)
		ul1, err := d.ReadULong()
		check("ulong", ul1, uint32(4000000000), err)
		ll1, err := d.ReadLongLong()
		check("longlong", ll1, int64(-9e18), err)
		ull1, err := d.ReadULongLong()
		check("ulonglong", ull1, uint64(18446744073709551615), err)
		f1, err := d.ReadFloat()
		check("float", f1, float32(3.5), err)
		d1, err := d.ReadDouble()
		check("double", d1, math.Pi, err)
		str, err := d.ReadString()
		check("string", str, "hello, pardis", err)
		str2, err := d.ReadString()
		check("empty string", str2, "", err)
		en, err := d.ReadEnum()
		check("enum", en, uint32(7), err)
		if d.Remaining() != 0 {
			t.Fatalf("%v: %d trailing bytes", ord, d.Remaining())
		}
	}
}

func TestAlignment(t *testing.T) {
	e := NewEncoder(LittleEndian)
	e.WriteOctet(1)  // pos 0
	e.WriteULong(2)  // pads to 4
	e.WriteOctet(3)  // pos 8
	e.WriteDouble(4) // pads to 16
	e.WriteOctet(5)  // pos 24
	e.WriteUShort(6) // pads to 26
	buf := e.Bytes()
	if len(buf) != 28 {
		t.Fatalf("encoded length %d, want 28", len(buf))
	}
	// Padding bytes must be zero.
	for _, i := range []int{1, 2, 3, 9, 10, 11, 12, 13, 14, 15, 25} {
		if buf[i] != 0 {
			t.Errorf("pad byte %d = %#x", i, buf[i])
		}
	}
	d := NewDecoder(buf, LittleEndian)
	for i, read := range []func() (any, error){
		func() (any, error) { return d.ReadOctet() },
		func() (any, error) { return d.ReadULong() },
		func() (any, error) { return d.ReadOctet() },
		func() (any, error) { return d.ReadDouble() },
		func() (any, error) { return d.ReadOctet() },
		func() (any, error) { return d.ReadUShort() },
	} {
		if _, err := read(); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
}

func TestCrossEndianValues(t *testing.T) {
	// Big-endian bytes of 0x01020304 decoded as declared.
	e := NewEncoder(BigEndian)
	e.WriteULong(0x01020304)
	if !bytes.Equal(e.Bytes(), []byte{1, 2, 3, 4}) {
		t.Fatalf("big-endian encoding %v", e.Bytes())
	}
	e = NewEncoder(LittleEndian)
	e.WriteULong(0x01020304)
	if !bytes.Equal(e.Bytes(), []byte{4, 3, 2, 1}) {
		t.Fatalf("little-endian encoding %v", e.Bytes())
	}
}

func TestOctetsAndRaw(t *testing.T) {
	e := NewEncoder(NativeOrder)
	e.WriteOctets([]byte{9, 8, 7})
	e.WriteRaw([]byte{1, 2})
	d := NewDecoder(e.Bytes(), NativeOrder)
	got, err := d.ReadOctets()
	if err != nil || !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Fatalf("octets %v err %v", got, err)
	}
	// Raw bytes carry no count and no alignment: they follow the octets.
	if raw := e.Bytes()[d.Pos():]; d.Remaining() != 2 || !bytes.Equal(raw, []byte{1, 2}) {
		t.Fatalf("raw %v, %d bytes remaining", raw, d.Remaining())
	}
}

func TestDoubleSliceRoundTrip(t *testing.T) {
	prop := func(v []float64, little bool) bool {
		ord := BigEndian
		if little {
			ord = LittleEndian
		}
		e := NewEncoder(ord)
		e.WriteOctet(1) // misalign on purpose
		e.WriteDoubles(v)
		d := NewDecoder(e.Bytes(), ord)
		if _, err := d.ReadOctet(); err != nil {
			return false
		}
		got, err := d.ReadDoubles()
		if err != nil || len(got) != len(v) {
			return false
		}
		for i := range v {
			if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
				return false
			}
		}
		return d.Remaining() == 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLongSliceRoundTrip(t *testing.T) {
	prop := func(v []int32, little bool) bool {
		ord := BigEndian
		if little {
			ord = LittleEndian
		}
		e := NewEncoder(ord)
		e.WriteLongs(v)
		d := NewDecoder(e.Bytes(), ord)
		got, err := d.ReadLongs()
		if err != nil || len(got) != len(v) {
			return false
		}
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringRoundTripProperty(t *testing.T) {
	prop := func(parts []string) bool {
		e := NewEncoder(NativeOrder)
		clean := make([]string, 0, len(parts))
		for _, s := range parts {
			// CDR strings cannot contain NUL.
			if bytes.IndexByte([]byte(s), 0) >= 0 {
				continue
			}
			clean = append(clean, s)
			e.WriteString(s)
		}
		d := NewDecoder(e.Bytes(), NativeOrder)
		for _, want := range clean {
			got, err := d.ReadString()
			if err != nil || got != want {
				return false
			}
		}
		return d.Remaining() == 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncapsulation(t *testing.T) {
	for _, ord := range bothOrders {
		e := NewEncoder(ord)
		e.WriteLong(42)
		e.WriteEncapsulation(func(inner *Encoder) {
			inner.WriteDouble(2.75)
			inner.WriteString("nested")
		})
		e.WriteLong(43)

		d := NewDecoder(e.Bytes(), ord)
		if v, err := d.ReadLong(); err != nil || v != 42 {
			t.Fatalf("%v pre: %v %v", ord, v, err)
		}
		inner, err := d.ReadEncapsulation()
		if err != nil {
			t.Fatalf("%v encapsulation: %v", ord, err)
		}
		if inner.Order() != ord {
			t.Fatalf("inner order %v, want %v", inner.Order(), ord)
		}
		if v, err := inner.ReadDouble(); err != nil || v != 2.75 {
			t.Fatalf("%v inner double: %v %v", ord, v, err)
		}
		if s, err := inner.ReadString(); err != nil || s != "nested" {
			t.Fatalf("%v inner string: %q %v", ord, s, err)
		}
		if v, err := d.ReadLong(); err != nil || v != 43 {
			t.Fatalf("%v post: %v %v", ord, v, err)
		}
	}
}

func TestEncapsulationAlignmentIndependence(t *testing.T) {
	// The same encapsulation body must decode identically regardless of the
	// outer offset it lands at.
	build := func(prefix int) []byte {
		e := NewEncoder(LittleEndian)
		for i := 0; i < prefix; i++ {
			e.WriteOctet(0xFF)
		}
		e.WriteEncapsulation(func(inner *Encoder) {
			inner.WriteDouble(1.5)
		})
		return e.Bytes()
	}
	for prefix := 0; prefix < 9; prefix++ {
		d := NewDecoder(build(prefix), LittleEndian)
		for i := 0; i < prefix; i++ {
			if _, err := d.ReadOctet(); err != nil {
				t.Fatal(err)
			}
		}
		inner, err := d.ReadEncapsulation()
		if err != nil {
			t.Fatalf("prefix %d: %v", prefix, err)
		}
		v, err := inner.ReadDouble()
		if err != nil || v != 1.5 {
			t.Fatalf("prefix %d: %v %v", prefix, v, err)
		}
	}
}

func TestTruncationErrors(t *testing.T) {
	e := NewEncoder(NativeOrder)
	e.WriteDouble(1)
	e.WriteString("abc")
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut], NativeOrder)
		_, err1 := d.ReadDouble()
		if err1 != nil {
			if !errors.Is(err1, ErrTruncated) {
				t.Fatalf("cut %d: double err %v", cut, err1)
			}
			continue
		}
		if _, err2 := d.ReadString(); err2 == nil {
			t.Fatalf("cut %d: truncated string accepted", cut)
		}
	}
}

func TestInvalidEncodings(t *testing.T) {
	// Bad boolean octet.
	d := NewDecoder([]byte{7}, NativeOrder)
	if _, err := d.ReadBool(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bool: %v", err)
	}
	// Zero-length string (prefix must be >= 1 for the NUL).
	e := NewEncoder(NativeOrder)
	e.WriteULong(0)
	d = NewDecoder(e.Bytes(), NativeOrder)
	if _, err := d.ReadString(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("zero-length string: %v", err)
	}
	// String whose terminator is not NUL.
	e = NewEncoder(NativeOrder)
	e.WriteULong(3)
	e.WriteRaw([]byte{'a', 'b', 'c'})
	d = NewDecoder(e.Bytes(), NativeOrder)
	if _, err := d.ReadString(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("unterminated string: %v", err)
	}
	// Huge length prefix must not allocate.
	e = NewEncoder(NativeOrder)
	e.WriteULong(0xFFFFFFFF)
	d = NewDecoder(e.Bytes(), NativeOrder)
	if _, err := d.ReadOctets(); err == nil {
		t.Fatal("huge octet sequence accepted")
	}
	// Empty encapsulation.
	e = NewEncoder(NativeOrder)
	e.WriteOctets(nil)
	d = NewDecoder(e.Bytes(), NativeOrder)
	if _, err := d.ReadEncapsulation(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty encapsulation: %v", err)
	}
	// Bad byte-order flag in encapsulation.
	e = NewEncoder(NativeOrder)
	e.WriteOctets([]byte{9})
	d = NewDecoder(e.Bytes(), NativeOrder)
	if _, err := d.ReadEncapsulation(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bad encapsulation flag: %v", err)
	}
}

func TestEncoderReuse(t *testing.T) {
	e := NewEncoder(NativeOrder)
	e.WriteLong(1)
	first := append([]byte(nil), e.Bytes()...)
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("len after reset %d", e.Len())
	}
	e.WriteLong(1)
	if !bytes.Equal(first, e.Bytes()) {
		t.Fatal("reset encoder produced different bytes")
	}
}

func TestGrow(t *testing.T) {
	e := NewEncoder(NativeOrder)
	e.WriteOctet(1)
	e.Grow(1 << 16)
	if cap(e.buf)-len(e.buf) < 1<<16 {
		t.Fatal("Grow did not reserve capacity")
	}
	e.WriteOctet(2)
	if !bytes.Equal(e.Bytes(), []byte{1, 2}) {
		t.Fatal("Grow corrupted contents")
	}
}

// Fuzz-like property: a decoder over arbitrary bytes never panics and never
// reads past the buffer, whatever sequence of reads we attempt.
func TestDecoderNeverPanics(t *testing.T) {
	prop := func(data []byte, ops []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		d := NewDecoder(data, LittleEndian)
		for _, op := range ops {
			switch op % 12 {
			case 0:
				d.ReadOctet()
			case 1:
				d.ReadBool()
			case 2:
				d.ReadShort()
			case 3:
				d.ReadULong()
			case 4:
				d.ReadLongLong()
			case 5:
				d.ReadFloat()
			case 6:
				d.ReadDouble()
			case 7:
				d.ReadString()
			case 8:
				d.ReadOctets()
			case 9:
				d.ReadDoubles()
			case 10:
				d.ReadEncapsulation()
			case 11:
				d.ReadLongs()
			}
			if d.Remaining() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestBeginOctetsMatchesWriteOctets pins the in-place octet sequence: a body
// encoded between BeginOctets and EndOctets is byte-identical to encoding it
// in a second encoder and copying it in with WriteOctets — count, the body's
// own alignment origin, and the enclosing origin restored afterwards — from
// every starting alignment.
func TestBeginOctetsMatchesWriteOctets(t *testing.T) {
	body := func(e *Encoder) {
		e.WriteOctet(1)
		e.WriteDoubles([]float64{1.5, -2})
		e.WriteString("x")
	}
	for _, ord := range []ByteOrder{BigEndian, LittleEndian} {
		for lead := 0; lead < 9; lead++ {
			inner := NewEncoder(ord)
			body(inner)
			want, got := NewEncoder(ord), NewEncoder(ord)
			for _, e := range []*Encoder{want, got} {
				e.WriteRaw(make([]byte, lead))
			}
			want.WriteOctets(inner.Bytes())
			m := got.BeginOctets()
			body(got)
			got.EndOctets(m)
			for _, e := range []*Encoder{want, got} {
				e.WriteULongLong(7) // aligned against the enclosing origin again
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%v lead %d: in-place octets\n%x\nwant\n%x", ord, lead, got.Bytes(), want.Bytes())
			}
		}
	}
}

func TestExtendAndAdopt(t *testing.T) {
	e := NewEncoder(NativeOrder)
	e.WriteOctet(9)
	copy(e.Extend(3), "abc")
	if string(e.Bytes()) != "\x09abc" {
		t.Fatalf("Extend produced %q", e.Bytes())
	}
	stream := []byte{1, 0, 0, 0}
	e.Adopt(stream)
	e.WriteULong(5)
	if e.Len() != 8 || !bytes.Equal(e.Bytes()[:4], stream) {
		t.Fatalf("Adopt did not continue the adopted stream: %x", e.Bytes())
	}
	if got, _ := NewDecoder(e.Bytes()[4:], NativeOrder).ReadULong(); got != 5 {
		t.Fatalf("value after adopted stream decodes as %d", got)
	}
}
