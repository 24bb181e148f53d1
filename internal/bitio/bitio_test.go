package bitio

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter()
	bits := []int{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range bits {
		w.WriteBit(b)
	}
	if got := w.Len(); got != len(bits) {
		t.Fatalf("Len = %d, want %d", got, len(bits))
	}
	r := NewReader(w.Bytes())
	for i, want := range bits {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Errorf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestWriteBitsMSBFirst(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0b1011, 4)
	w.WriteBits(0b0110, 4)
	got := w.Bytes()
	want := []byte{0b10110110}
	if !bytes.Equal(got, want) {
		t.Fatalf("Bytes = %08b, want %08b", got, want)
	}
}

func TestBytesPadsPartialByte(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0b101, 3)
	got := w.Bytes()
	want := []byte{0b10100000}
	if !bytes.Equal(got, want) {
		t.Fatalf("Bytes = %08b, want %08b", got, want)
	}
}

func TestBytesIsIdempotent(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0xABC, 12)
	a := w.Bytes()
	b := w.Bytes()
	if !bytes.Equal(a, b) {
		t.Fatalf("repeated Bytes differ: %x vs %x", a, b)
	}
	// And writing after Bytes still works.
	w.WriteBits(0xD, 4)
	r := NewReader(w.Bytes())
	v, err := r.ReadBits(16)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xABCD {
		t.Fatalf("after continued write got %#x, want 0xabcd", v)
	}
}

func TestReadBitsPastEnd(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err != ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
	if _, err := r.ReadBits(4); err != ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestReset(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0xFFFF, 16)
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", w.Len())
	}
	w.WriteBits(0x5, 3)
	r := NewReader(w.Bytes())
	v, err := r.ReadBits(3)
	if err != nil || v != 5 {
		t.Fatalf("got %d,%v want 5,nil", v, err)
	}
}

func TestWriteBitsWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for width > 64")
		}
	}()
	NewWriter().WriteBits(0, 65)
}

func TestZeroWidthWriteRead(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0xFFFF, 0) // no-op
	if w.Len() != 0 {
		t.Fatalf("Len = %d, want 0", w.Len())
	}
	r := NewReader(nil)
	v, err := r.ReadBits(0)
	if err != nil || v != 0 {
		t.Fatalf("ReadBits(0) = %d,%v want 0,nil", v, err)
	}
}

// Property: any sequence of (value,width) fields round-trips.
func TestQuickFieldRoundTrip(t *testing.T) {
	f := func(vals []uint64, widths []uint8) bool {
		n := len(vals)
		if len(widths) < n {
			n = len(widths)
		}
		w := NewWriter()
		type field struct {
			v     uint64
			width uint
		}
		var fields []field
		for i := 0; i < n; i++ {
			width := uint(widths[i] % 65)
			v := vals[i]
			if width < 64 {
				v &= (1 << width) - 1
			}
			fields = append(fields, field{v, width})
			w.WriteBits(v, width)
		}
		r := NewReader(w.Bytes())
		for _, fl := range fields {
			got, err := r.ReadBits(fl.width)
			if err != nil || got != fl.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: 64-bit values round-trip exactly.
func TestQuick64BitRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		w := NewWriter()
		w.WriteBits(v, 64)
		r := NewReader(w.Bytes())
		got, err := r.ReadBits(64)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
