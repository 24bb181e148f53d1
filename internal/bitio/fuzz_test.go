package bitio

import (
	"testing"
)

// FuzzBitioRoundTrip interprets the fuzz input as a script of write
// operations, runs it through a Writer, and checks that a Reader over the
// produced bytes returns exactly the written values — the MSB-first
// round-trip invariant the entropy coders depend on.
//
// Script encoding (one op per chunk, self-delimiting):
//   - byte%2 == 0: WriteBit of the byte's high bit
//   - byte%2 == 1: WriteBits of the next 8 bytes (LE value), width next%65
func FuzzBitioRoundTrip(f *testing.F) {
	// Seeds shaped like the golden streams of the coder tests: single bits,
	// a wide field, a bit followed by a cut-off field, and a mixed script.
	f.Add([]byte{0x80, 0x00, 0x03})
	f.Add([]byte{0x01, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x21})
	f.Add([]byte{0x02, 0x0b})
	f.Add([]byte{0x80, 0x02, 0x05, 0x01, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0x40, 0x00})
	f.Fuzz(func(t *testing.T, script []byte) {
		type op struct {
			kind  int
			value uint64
			width uint
		}
		var ops []op
		w := NewWriter()
		for i := 0; i < len(script); {
			switch script[i] % 2 {
			case 0:
				bit := int(script[i] >> 7)
				w.WriteBit(bit)
				ops = append(ops, op{kind: 0, value: uint64(bit)})
				i++
			case 1:
				if i+9 >= len(script) {
					i = len(script)
					break
				}
				var v uint64
				for j := 0; j < 8; j++ {
					v |= uint64(script[i+1+j]) << (8 * j)
				}
				n := uint(script[i+9]) % 65
				w.WriteBits(v, n)
				mask := ^uint64(0)
				if n < 64 {
					mask = (uint64(1) << n) - 1
				}
				ops = append(ops, op{kind: 1, value: v & mask, width: n})
				i += 10
			}
		}

		bits := 0
		for _, o := range ops {
			switch o.kind {
			case 0:
				bits++
			case 1:
				bits += int(o.width)
			}
		}
		if w.Len() != bits {
			t.Fatalf("Len() = %d after writing %d bits", w.Len(), bits)
		}
		buf := w.Bytes()
		if want := (bits + 7) / 8; len(buf) != want {
			t.Fatalf("Bytes() length %d, want %d for %d bits", len(buf), want, bits)
		}

		r := NewReader(buf)
		for i, o := range ops {
			switch o.kind {
			case 0:
				b, err := r.ReadBit()
				if err != nil {
					t.Fatalf("op %d: ReadBit: %v", i, err)
				}
				if uint64(b) != o.value {
					t.Fatalf("op %d: ReadBit = %d, want %d", i, b, o.value)
				}
			case 1:
				v, err := r.ReadBits(o.width)
				if err != nil {
					t.Fatalf("op %d: ReadBits(%d): %v", i, o.width, err)
				}
				if v != o.value {
					t.Fatalf("op %d: ReadBits(%d) = %#x, want %#x", i, o.width, v, o.value)
				}
			}
		}
		// The zero padding must read as zeros, then cleanly EOF.
		for i := bits; i < len(buf)*8; i++ {
			b, err := r.ReadBit()
			if err != nil {
				t.Fatalf("padding read: %v", err)
			}
			if b != 0 {
				t.Fatal("padding bit not zero")
			}
		}
		if _, err := r.ReadBit(); err != ErrUnexpectedEOF {
			t.Fatalf("read past end = %v, want ErrUnexpectedEOF", err)
		}
	})
}
