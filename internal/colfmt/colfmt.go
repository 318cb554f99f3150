// Package colfmt implements the CATS columnar binary container: the
// on-disk format shared by model snapshots and datasets when row-wise
// JSON costs too much at corpus scale (the paper scores 72.3M comments
// and crawls 100M+ — parsing every string through encoding/json at that
// volume dominates the pipeline it feeds).
//
// A file is a fixed header followed by length-prefixed, CRC-guarded
// blocks:
//
//	header:  magic "CATC" | version u8 | kind u8
//	block:   name-len uvarint | name | payload-len uvarint | crc32 u32le | payload
//
// Block payloads hold columns, not rows. String columns store uint32
// offsets into a shared per-block-group string arena, so a decoded
// string is a zero-copy slice of the arena — one allocation per arena,
// none per value. Integer columns are varint-packed (zigzag for signed
// values); float columns are fixed 8-byte little-endian IEEE bits so
// values round-trip exactly. Readers skip blocks with unknown names,
// which is how the format grows without a version bump.
//
// Decode failures are diagnosable from the error alone: every *Error
// carries the format version, the block name, and the byte offset the
// decoder died at (mirroring internal/core's JSON decodeFailureDetail).
//
// Arena lifetime: strings decoded from a block alias its arena and keep
// the whole arena reachable. That is the contract that lets arena-backed
// comment text flow into the //cats:hotpath tokenizer without copies;
// callers that retain a few strings from a huge block should
// strings.Clone them instead of pinning the arena.
package colfmt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strings"
)

// FormatVersion is bumped on incompatible layout changes.
const FormatVersion = 1

// Container kinds, stamped in the header so a model snapshot is never
// mistaken for a dataset (or vice versa).
const (
	KindSnapshot byte = 1
	KindDataset  byte = 2
)

// magic identifies a CATS columnar file. Chosen to be invalid as the
// first bytes of both JSON ('{') and JSONL, so format sniffing is a
// 4-byte peek.
var magic = [4]byte{'C', 'A', 'T', 'C'}

const headerSize = 6 // magic + version + kind

// maxBlockName bounds block-name length; names are short identifiers.
const maxBlockName = 255

// Sniff reports whether prefix begins with the columnar magic. A peek
// of at least 4 bytes decides between this format and JSON.
func Sniff(prefix []byte) bool {
	return len(prefix) >= 4 && [4]byte(prefix[:4]) == magic
}

// Error is a diagnosable container failure: format version, block name
// (empty while still reading the header), and the absolute byte offset
// the failure was detected at.
type Error struct {
	Version int
	Block   string
	Offset  int64
	Msg     string
	Err     error // wrapped cause, may be nil
}

// Error renders the full diagnostic, the detail a failed tenant reload
// surfaces in its /admin/reload response body.
func (e *Error) Error() string {
	where := "header"
	if e.Block != "" {
		where = fmt.Sprintf("block %q", e.Block)
	}
	s := fmt.Sprintf("colfmt: %s: format version %d, byte offset %d: %s", where, e.Version, e.Offset, e.Msg)
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// Unwrap exposes the cause for errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Writer emits a columnar container.
type Writer struct {
	w     io.Writer
	off   int64
	err   error
	var64 [binary.MaxVarintLen64]byte
}

// NewWriter writes the container header for the given kind and returns
// a block writer. The caller provides buffering (the dataset and
// snapshot writers both sit on a bufio.Writer).
func NewWriter(w io.Writer, kind byte) (*Writer, error) {
	cw := &Writer{w: w}
	var hdr [headerSize]byte
	copy(hdr[:4], magic[:])
	hdr[4] = FormatVersion
	hdr[5] = kind
	if err := cw.writeAll(hdr[:]); err != nil {
		return nil, err
	}
	return cw, nil
}

// WriteBlock frames one named block: name, payload length, CRC32 of
// the payload, payload.
func (w *Writer) WriteBlock(name string, payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if len(name) == 0 || len(name) > maxBlockName {
		w.err = fmt.Errorf("colfmt: block name %q length %d (want 1..%d)", name, len(name), maxBlockName)
		return w.err
	}
	w.writeUvarint(uint64(len(name)))
	w.writeAll([]byte(name))
	w.writeUvarint(uint64(len(payload)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	w.writeAll(crc[:])
	w.writeAll(payload)
	return w.err
}

// Offset returns the bytes written so far.
func (w *Writer) Offset() int64 { return w.off }

// Err returns the first write error.
func (w *Writer) Err() error { return w.err }

func (w *Writer) writeAll(b []byte) error {
	if w.err != nil {
		return w.err
	}
	n, err := w.w.Write(b)
	w.off += int64(n)
	if err != nil {
		w.err = fmt.Errorf("colfmt: write: %w", err)
	}
	return w.err
}

func (w *Writer) writeUvarint(v uint64) {
	n := binary.PutUvarint(w.var64[:], v)
	w.writeAll(w.var64[:n])
}

// Reader walks a columnar container block by block.
type Reader struct {
	r       *bufio.Reader
	version int
	kind    byte
	off     int64
	buf     []byte // payload scratch, reused across Next calls
}

// NewReader validates the header and positions the reader at the first
// block. r is wrapped in a bufio.Reader unless it already is one.
func NewReader(r io.Reader) (*Reader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	cr := &Reader{r: br, version: FormatVersion}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, cr.fail("short header", err)
	}
	cr.off = headerSize
	if !Sniff(hdr[:]) {
		return nil, cr.fail(fmt.Sprintf("bad magic %q", hdr[:4]), nil)
	}
	cr.version = int(hdr[4])
	if cr.version != FormatVersion {
		return nil, cr.fail(fmt.Sprintf("unsupported format version %d (want %d)", cr.version, FormatVersion), nil)
	}
	cr.kind = hdr[5]
	if cr.kind != KindSnapshot && cr.kind != KindDataset {
		return nil, cr.fail(fmt.Sprintf("unknown container kind %d", cr.kind), nil)
	}
	return cr, nil
}

// Kind returns the container kind from the header.
func (r *Reader) Kind() byte { return r.kind }

// Offset returns the absolute byte offset consumed so far.
func (r *Reader) Offset() int64 { return r.off }

// Next returns the next block. The payload is valid only until the
// following Next call (the buffer is reused); decoded numeric columns
// are copied out and string columns alias the arena, so block decoders
// built on Decode never retain it. Returns io.EOF cleanly at end of
// container.
func (r *Reader) Next() (name string, payload []byte, err error) { return r.NextArena(nil) }

// NextArena is Next for a reader whose strings alias the arena for as
// long as they are in use (a dataset chunk, a model snapshot): the
// payload of a block named "arena" is read straight into *arena, a
// string of its own, and not returned. The bytes go from the read
// buffer into the string's memory, the CRC kept as they pass; no
// scratch copy exists.
func (r *Reader) NextArena(arena *string) (name string, payload []byte, err error) {
	if _, err := r.r.Peek(1); err == io.EOF {
		return "", nil, io.EOF
	}
	nameLen, err := r.readUvarint("block name length")
	if err != nil {
		return "", nil, err
	}
	if nameLen == 0 || nameLen > maxBlockName {
		return "", nil, r.fail(fmt.Sprintf("block name length %d (want 1..%d)", nameLen, maxBlockName), nil)
	}
	nameBuf := make([]byte, nameLen)
	if err := r.readFull(nameBuf, "block name"); err != nil {
		return "", nil, err
	}
	name = string(nameBuf)
	payLen, err := r.readUvarint("payload length of " + name)
	if err != nil {
		return "", nil, err
	}
	if payLen > 1<<31 {
		return "", nil, r.failBlock(name, fmt.Sprintf("payload length %d exceeds 2GiB cap", payLen), nil)
	}
	var crcBuf [4]byte
	if err := r.readFull(crcBuf[:], "crc of "+name); err != nil {
		return "", nil, err
	}
	want, got := binary.LittleEndian.Uint32(crcBuf[:]), uint32(0)
	if arena != nil && name == "arena" {
		*arena, got, err = r.payloadString(name, int(payLen))
	} else {
		payload, err = r.payload(name, int(payLen))
		got = crc32.ChecksumIEEE(payload)
	}
	if err != nil {
		return "", nil, err
	}
	if got != want {
		return "", nil, r.failBlock(name, fmt.Sprintf("crc mismatch: stored %08x, computed %08x", want, got), nil)
	}
	return name, payload, nil
}

// payloadStep is the most room a payload gets before its bytes arrive.
// A frame may declare any length up to the 2 GiB cap, so the length
// alone sizes no allocation beyond this: a payload within it is read
// into one exact allocation, a longer one grows as append does, and a
// frame that declares a gigabyte and delivers nothing costs 4 MiB.
const payloadStep = 4 << 20

// payload reads a block's n payload bytes into the reader's scratch.
func (r *Reader) payload(name string, n int) ([]byte, error) {
	buf := r.buf[:0]
	for len(buf) < n {
		// All that is left, if the scratch already has the capacity.
		step := min(n-len(buf), max(cap(buf)-len(buf), payloadStep))
		buf = slices.Grow(buf, step)[:len(buf)+step]
		if err := r.readFull(buf[len(buf)-step:], "payload of "+name); err != nil {
			return nil, err
		}
	}
	r.buf = buf
	return buf, nil
}

// payloadString reads a block's n payload bytes into a string of their
// own and returns it with its CRC.
func (r *Reader) payloadString(name string, n int) (string, uint32, error) {
	var sb strings.Builder
	sb.Grow(min(n, payloadStep))
	var crc uint32
	for sb.Len() < n {
		if _, err := r.r.Peek(1); err != nil {
			return "", 0, r.fail("reading payload of "+name, noEOF(err))
		}
		p, _ := r.r.Peek(min(n-sb.Len(), r.r.Buffered()))
		sb.Write(p)
		crc = crc32.Update(crc, crc32.IEEETable, p)
		r.r.Discard(len(p)) // cannot fail: p is buffered
		r.off += int64(len(p))
	}
	return sb.String(), crc, nil
}

// Decode runs fn over a column decoder for payload, one that reports
// failures with this reader's version and the block's name, and returns
// the decoder's Done: its first failure, or an error for bytes fn left
// unread. It is the only way to a Dec outside this package, so no block
// is decoded without that final check.
func (r *Reader) Decode(block string, payload []byte, fn func(*Dec)) error {
	d := &Dec{version: r.version, block: block, b: payload}
	fn(d)
	return d.Done()
}

func (r *Reader) readUvarint(what string) (uint64, error) {
	v, err := binary.ReadUvarint(countingByteReader{r})
	if err != nil {
		return 0, r.fail("reading "+what, noEOF(err))
	}
	return v, nil
}

func (r *Reader) readFull(dst []byte, what string) error {
	n, err := io.ReadFull(r.r, dst)
	r.off += int64(n)
	if err != nil {
		return r.fail("reading "+what, noEOF(err))
	}
	return nil
}

func (r *Reader) fail(msg string, cause error) *Error {
	return &Error{Version: r.version, Offset: r.off, Msg: msg, Err: cause}
}

func (r *Reader) failBlock(block, msg string, cause error) *Error {
	return &Error{Version: r.version, Block: block, Offset: r.off, Msg: msg, Err: cause}
}

// noEOF converts a bare EOF inside a frame into ErrUnexpectedEOF: only
// a block boundary may end the container cleanly.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// countingByteReader feeds ReadUvarint while keeping Reader.off honest.
type countingByteReader struct{ r *Reader }

func (c countingByteReader) ReadByte() (byte, error) {
	b, err := c.r.r.ReadByte()
	if err == nil {
		c.r.off++
	}
	return b, err
}
