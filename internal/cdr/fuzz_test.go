package cdr

import "testing"

// FuzzDecoder cycles a decoder through every primitive reader over
// arbitrary bytes, in both byte orders. Every reader must either yield a
// value or fail with an error — no panics, no unbounded allocation (the
// length-prefixed readers must validate counts against Remaining before
// allocating).
func FuzzDecoder(f *testing.F) {
	e := NewEncoder(NativeOrder)
	e.WriteOctet(7)
	e.WriteBool(true)
	e.WriteShort(-2)
	e.WriteULong(40)
	e.WriteDouble(3.25)
	e.WriteString("seed")
	e.WriteOctets([]byte("opaque"))
	e.WriteDoubles([]float64{1, 2, 3})
	e.WriteLongs([]int32{-1, 0, 1})
	f.Add(e.Bytes())
	f.Add([]byte("\xff\xff\xff\xff"))   // huge length prefix
	f.Add([]byte("\x00\x00\x00\x04se")) // truncated string
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, ord := range []ByteOrder{BigEndian, LittleEndian} {
			d := NewDecoder(data, ord)
			// Cycle through the readers until the first error. Every
			// successful read consumes at least one byte, so this
			// terminates.
			steps := []func() error{
				func() error { _, err := d.ReadOctet(); return err },
				func() error { _, err := d.ReadBool(); return err },
				func() error { _, err := d.ReadChar(); return err },
				func() error { _, err := d.ReadShort(); return err },
				func() error { _, err := d.ReadUShort(); return err },
				func() error { _, err := d.ReadLong(); return err },
				func() error { _, err := d.ReadULong(); return err },
				func() error { _, err := d.ReadLongLong(); return err },
				func() error { _, err := d.ReadULongLong(); return err },
				func() error { _, err := d.ReadFloat(); return err },
				func() error { _, err := d.ReadDouble(); return err },
				func() error { _, err := d.ReadString(); return err },
				func() error { _, err := d.ReadOctets(); return err },
				func() error { _, err := d.ReadDoubles(); return err },
				func() error { _, err := d.ReadLongs(); return err },
				func() error { _, err := d.ReadEnum(); return err },
				func() error {
					sub, err := d.ReadEncapsulation()
					if err != nil {
						return err
					}
					_, err = sub.ReadOctet()
					return err
				},
			}
			i := 0
			for {
				if err := steps[i%len(steps)](); err != nil {
					break
				}
				i++
			}
		}
	})
}
