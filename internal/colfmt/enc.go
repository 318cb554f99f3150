package colfmt

import (
	"encoding/binary"
	"math"
)

// Enc builds a block payload. Scalars append individually; the column
// helpers prefix a count so the matching Dec helper can bound its
// allocation before reading a single element.
type Enc struct {
	b []byte
}

// Bytes returns the encoded payload.
func (e *Enc) Bytes() []byte { return e.b }

// Len returns the encoded size so far.
func (e *Enc) Len() int { return len(e.b) }

// Reset empties the encoder, retaining capacity.
func (e *Enc) Reset() { e.b = e.b[:0] }

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// Varint appends a zigzag-coded signed varint.
func (e *Enc) Varint(v int64) { e.b = binary.AppendVarint(e.b, v) }

// U32 appends a fixed 4-byte little-endian value (string-arena offsets).
func (e *Enc) U32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }

// F64 appends IEEE 754 bits, 8 bytes little-endian: floats round-trip
// exactly, which the bit-identical-detections contract depends on.
func (e *Enc) F64(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }

// Byte appends one byte.
func (e *Enc) Byte(v byte) { e.b = append(e.b, v) }

// Bool appends a 0/1 byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Raw appends bytes verbatim (the caller encodes its own length).
func (e *Enc) Raw(b []byte) { e.b = append(e.b, b...) }

// Str appends a length-prefixed string — for scalar metadata, not
// columns; column strings belong in the arena.
func (e *Enc) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// IntCol appends a varint-packed signed column: count, then zigzag
// varints.
func (e *Enc) IntCol(vs []int64) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.Varint(v)
	}
}

// IntsCol is IntCol over machine ints.
func (e *Enc) IntsCol(vs []int) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.Varint(int64(v))
	}
}

// F64Col appends a float column: count, then fixed 8-byte values.
func (e *Enc) F64Col(vs []float64) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.F64(v)
	}
}

// ByteCol appends a byte column: count, then raw bytes (labels,
// clients, leaf flags).
func (e *Enc) ByteCol(vs []byte) {
	e.Uvarint(uint64(len(vs)))
	e.b = append(e.b, vs...)
}

// Arena accumulates the shared string bytes one block group's string
// columns point into.
type Arena struct {
	b []byte
}

// Len returns the arena size so far; it only grows, so a column's
// offsets are stable once written.
func (a *Arena) Len() int { return len(a.b) }

// Bytes returns the arena contents, the payload of the arena block.
func (a *Arena) Bytes() []byte { return a.b }

// Reset empties the arena, retaining capacity.
func (a *Arena) Reset() { a.b = a.b[:0] }

// add appends s and returns the end offset.
func (a *Arena) add(s string) uint32 {
	a.b = append(a.b, s...)
	return uint32(len(a.b))
}

// StringCol appends a string column to e, storing the strings
// contiguously in a: count, base offset, then one uint32 end offset per
// string. Decoding slices [prev:end] out of the arena — zero copies per
// value.
func (e *Enc) StringCol(a *Arena, ss []string) {
	e.Uvarint(uint64(len(ss)))
	e.U32(uint32(a.Len()))
	for _, s := range ss {
		e.U32(a.add(s))
	}
}
