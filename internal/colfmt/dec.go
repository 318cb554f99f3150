package colfmt

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Dec decodes a block payload written by Enc. Errors are sticky: the
// first failure is recorded with the block name and byte offset, every
// subsequent getter returns a zero value, and Reader.Decode, which owns
// the decoder, checks Done() once at the end — the same discipline as
// bufio.Scanner. Err() lets a decode function stop early.
//
// Every count read from the wire is bounded by the bytes remaining
// before anything is allocated, so a corrupt or adversarial length
// prefix cannot force a huge allocation.
type Dec struct {
	version int
	block   string
	b       []byte
	off     int
	err     *Error
}

// Err returns the first decode failure, or nil.
func (d *Dec) Err() error {
	if d.err == nil {
		return nil
	}
	return d.err
}

// Done returns the first decode failure, or an error if unconsumed
// bytes remain — a length that lied about its payload is corruption
// even when every read succeeded.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		d.fail(fmt.Sprintf("%d trailing bytes after last column", len(d.b)-d.off))
		return d.err
	}
	return nil
}

func (d *Dec) fail(msg string) {
	if d.err == nil {
		d.err = &Error{Version: d.version, Block: d.block, Offset: int64(d.off), Msg: msg}
	}
}

// Failf records a consumer-detected semantic failure (a shape mismatch
// the frame itself cannot express) with the block's diagnostic context.
// Like wire-level failures it is sticky: only the first error is kept.
func (d *Dec) Failf(format string, args ...any) {
	d.fail(fmt.Sprintf(format, args...))
}

func (d *Dec) remaining() int { return len(d.b) - d.off }

// Uvarint reads an unsigned varint.
//
//cats:hotpath
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong uvarint")
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zigzag-coded signed varint.
//
//cats:hotpath
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.off += n
	return v
}

// Int reads a varint that must fit a machine int.
//
//cats:hotpath
func (d *Dec) Int() int {
	v := d.Varint()
	if int64(int(v)) != v {
		d.Failf("value %d overflows int", v)
		return 0
	}
	return int(v)
}

// U32 reads a fixed 4-byte little-endian value.
//
//cats:hotpath
func (d *Dec) U32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 4 {
		d.fail("truncated u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

// F64 reads 8 little-endian IEEE 754 bytes.
//
//cats:hotpath
func (d *Dec) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("truncated f64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// Byte reads one byte.
//
//cats:hotpath
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 1 {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Bool reads a 0/1 byte.
//
//cats:hotpath
func (d *Dec) Bool() bool {
	switch d.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bool byte is neither 0 nor 1")
		return false
	}
}

// Str reads a length-prefixed string (scalar metadata).
func (d *Dec) Str() string {
	n := d.count("string length", 1)
	if d.err != nil {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// count reads a column count and verifies the payload can hold it at
// minBytes per element, the guard that keeps corrupt counts from
// driving allocations.
//
//cats:hotpath
func (d *Dec) count(what string, minBytes int) int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(d.remaining()/minBytes) {
		d.Failf("%s %d exceeds %d remaining payload bytes", what, v, d.remaining())
		return 0
	}
	return int(v)
}

// IntCol reads a varint-packed signed column.
func (d *Dec) IntCol() []int64 {
	n := d.count("int column length", 1)
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.Varint()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// SkipIntCol is IntCol without the column: the same count guard, every
// varint decoded, nothing kept. It returns the column's length.
//
//cats:hotpath
func (d *Dec) SkipIntCol() int {
	n := d.count("int column length", 1)
	for i := 0; i < n; i++ {
		d.Varint()
	}
	if d.err != nil {
		return 0
	}
	return n
}

// IntsCol reads an IntCol into machine ints.
func (d *Dec) IntsCol() []int {
	n := d.count("int column length", 1)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.Int()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// F64Col reads a float column.
func (d *Dec) F64Col() []float64 {
	n := d.count("float column length", 8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// ByteCol reads a byte column. The returned slice is copied out of the
// payload (payload buffers are reused by Reader.Next).
func (d *Dec) ByteCol() []byte {
	n := d.SkipByteCol()
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.b[d.off-n:d.off])
	return out
}

// SkipByteCol steps over a byte column and returns its length.
//
//cats:hotpath
func (d *Dec) SkipByteCol() int {
	n := d.count("byte column length", 1)
	d.off += n
	return n
}

// StringCol reads a string column: every value is a zero-copy slice of
// arena, validated to be in-bounds and non-overlapping-backwards.
func (d *Dec) StringCol(arena string) []string {
	n := d.SkipStringCol(arena)
	if n == 0 {
		return nil
	}
	// Validated above: the base and n end offsets the skip stepped over.
	offs := d.b[d.off-4*(n+1) : d.off]
	out := make([]string, n)
	prev := binary.LittleEndian.Uint32(offs)
	for i := range out {
		end := binary.LittleEndian.Uint32(offs[4*(i+1):])
		out[i] = arena[prev:end]
		prev = end
	}
	return out
}

// SkipStringCol is StringCol without the column: the same count guard,
// base and every end offset checked against arena, nothing built. It
// returns the column's length.
//
//cats:hotpath
func (d *Dec) SkipStringCol(arena string) int {
	n := d.count("string column length", 4)
	base := d.U32()
	if uint64(base) > uint64(len(arena)) {
		d.Failf("string column base %d beyond arena size %d", base, len(arena))
	}
	prev := base
	for i := 0; i < n; i++ {
		end := d.U32()
		if d.err == nil && (end < prev || uint64(end) > uint64(len(arena))) {
			d.Failf("string %d spans arena [%d:%d] outside [%d:%d]", i, prev, end, base, len(arena))
		}
		if d.err != nil {
			return 0
		}
		prev = end
	}
	return n
}
