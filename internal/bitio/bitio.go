// Package bitio provides bit-granular readers and writers on top of byte
// buffers. It is the transport substrate for the entropy coders in the BTPC
// demonstrator application: adaptive Huffman codes are variable-length bit
// strings, and escape-coded residuals are written as fixed-width fields.
//
// Bits are packed MSB-first within each byte, which keeps the on-the-wire
// format independent of host endianness and makes hexdumps readable.
package bitio

import (
	"errors"
	"fmt"
)

// ErrUnexpectedEOF is returned when a read requires more bits than remain.
var ErrUnexpectedEOF = errors.New("bitio: unexpected end of bit stream")

// Writer accumulates bits MSB-first into an in-memory buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  byte // partially filled byte
	nCur uint // number of bits currently in cur (0..7)
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// WriteBit appends a single bit (any non-zero b writes 1).
func (w *Writer) WriteBit(b int) {
	w.cur <<= 1
	if b != 0 {
		w.cur |= 1
	}
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bitio: WriteBits width %d out of range", n))
	}
	for i := int(n) - 1; i >= 0; i-- {
		w.WriteBit(int((v >> uint(i)) & 1))
	}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return len(w.buf)*8 + int(w.nCur) }

// Bytes returns the written stream padded with zero bits to a byte boundary.
// The Writer remains usable; Bytes may be called repeatedly.
func (w *Writer) Bytes() []byte {
	out := make([]byte, len(w.buf), len(w.buf)+1)
	copy(out, w.buf)
	if w.nCur > 0 {
		out = append(out, w.cur<<(8-w.nCur))
	}
	return out
}

// Reset discards all written bits.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur, w.nCur = 0, 0
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf []byte
	pos int // absolute bit position
}

// NewReader returns a Reader over buf. The caller must not mutate buf while
// the Reader is in use.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// ReadBit returns the next bit (0 or 1).
func (r *Reader) ReadBit() (int, error) {
	byteIdx := r.pos >> 3
	if byteIdx >= len(r.buf) {
		return 0, ErrUnexpectedEOF
	}
	shift := uint(7 - (r.pos & 7))
	r.pos++
	return int((r.buf[byteIdx] >> shift) & 1), nil
}

// ReadBits returns the next n bits as the low bits of a uint64,
// most significant bit first. n must be in [0, 64].
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		panic(fmt.Sprintf("bitio: ReadBits width %d out of range", n))
	}
	var v uint64
	for i := uint(0); i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}
