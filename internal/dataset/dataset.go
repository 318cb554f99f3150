// Package dataset persists collected e-commerce records in two
// formats: streaming JSONL (one item per line — the import/export
// format CATS' data collector writes) and the columnar binary
// container (internal/colfmt — the native format for corpus-scale
// runs: no text to scan, one arena per chunk). Readers sniff the format
// from the leading magic bytes; writers pick one explicitly. JSONL lines
// in the canonical encoding are read by ecom.Decoder, any other by
// encoding/json (Reader.JSONLLines counts both). Both formats stream,
// and both can be read projected (Reader.NextTexts), so datasets larger
// than memory are processed item by item with bounded peak RSS.
package dataset

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/colfmt"
	"repro/internal/ecom"
)

// Format selects a dataset encoding.
type Format int

const (
	// FormatJSONL is one JSON item per line.
	FormatJSONL Format = iota
	// FormatColumnar is the colfmt binary container: chunks of items
	// as column blocks over a shared string arena. Decoded strings
	// alias the chunk arena — zero copies per comment.
	FormatColumnar
)

// itemEncoder is one output format behind Writer.
type itemEncoder interface {
	write(item *ecom.Item) error
	// finish flushes buffered state; the Writer owns the closer.
	finish() error
}

// Writer streams items to JSONL or the columnar container.
type Writer struct {
	enc itemEncoder
	c   io.Closer
	n   int
	err error
}

// NewWriter wraps w as a JSONL writer. Close flushes but does not
// close w.
func NewWriter(w io.Writer) *Writer { return NewWriterFormat(w, FormatJSONL) }

// NewWriterFormat wraps w with the chosen format. Close flushes but
// does not close w.
func NewWriterFormat(w io.Writer, f Format) *Writer {
	switch f {
	case FormatColumnar:
		return &Writer{enc: newColWriter(w)}
	default:
		return &Writer{enc: &jsonlWriter{w: bufio.NewWriterSize(w, 1<<16)}}
	}
}

// Create opens path for JSONL writing, truncating any existing file.
func Create(path string) (*Writer, error) { return CreateFormat(path, FormatJSONL) }

// CreateFormat opens path for writing in the chosen format,
// truncating any existing file.
func CreateFormat(path string, f Format) (*Writer, error) {
	fl, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: create %s: %w", path, err)
	}
	wr := NewWriterFormat(fl, f)
	wr.c = fl
	return wr, nil
}

// Write appends one item. The item is fully encoded (or copied into
// the pending chunk) before Write returns; the caller may reuse it.
func (w *Writer) Write(item *ecom.Item) error {
	if w.err != nil {
		return w.err
	}
	if err := w.enc.write(item); err != nil {
		w.err = err
		return err
	}
	w.n++
	return nil
}

// Count returns the number of items written so far.
func (w *Writer) Count() int { return w.n }

// Close flushes buffered output and closes the underlying file when
// the Writer owns one.
func (w *Writer) Close() error {
	if err := w.enc.finish(); err != nil && w.err == nil {
		w.err = err
	}
	if w.c != nil {
		if err := w.c.Close(); err != nil && w.err == nil {
			w.err = err
		}
	}
	return w.err
}

// jsonlWriter is the row-oriented encoder.
type jsonlWriter struct {
	w *bufio.Writer
}

func (j *jsonlWriter) write(item *ecom.Item) error {
	b, err := json.Marshal(item)
	if err != nil {
		return fmt.Errorf("dataset: marshal item %s: %w", item.ID, err)
	}
	if _, err := j.w.Write(b); err != nil {
		return err
	}
	return j.w.WriteByte('\n')
}

func (j *jsonlWriter) finish() error { return j.w.Flush() }

// WriteAll writes a whole dataset to path as JSONL.
func WriteAll(path string, ds *ecom.Dataset) error {
	return WriteAllFormat(path, ds, FormatJSONL)
}

// WriteAllFormat writes a whole dataset to path in the chosen format.
func WriteAllFormat(path string, ds *ecom.Dataset, f Format) error {
	w, err := CreateFormat(path, f)
	if err != nil {
		return err
	}
	for i := range ds.Items {
		if err := w.Write(&ds.Items[i]); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// itemDecoder is one input format behind Reader. One that reads projected
// returns, for an item keep accepts (nil: all), its contents as texts.
type itemDecoder interface {
	next(keep func(*ecom.Item) bool) (item *ecom.Item, texts []string, err error)
}

// Reader streams items from JSONL or the columnar container,
// deciding which on the first read by sniffing the magic bytes.
type Reader struct {
	br    *bufio.Reader
	c     io.Closer
	dec   itemDecoder
	texts bool // dec was opened by NextTexts
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Open opens path for reading.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: open %s: %w", path, err)
	}
	rd := NewReader(f)
	rd.c = f
	return rd, nil
}

// Next returns the next item, or io.EOF when exhausted. An item's
// strings keep alive the arena they were decoded into: the whole chunk's
// on the columnar format, a 64 KiB block shared with its neighbours on
// JSONL.
func (r *Reader) Next() (*ecom.Item, error) {
	item, _, err := r.next(false, nil)
	return item, err
}

// NextTexts is Next for a caller that reads nothing of a comment but
// its text, as the detector does: the item has its item-level fields
// and Comments nil, texts holds its comments' contents. Both formats
// are decoded projected, accepting and rejecting exactly the bytes Next
// does: of a columnar chunk's comment block only the contents column is
// built, the other six are validated and skipped; a JSONL line is
// scanned in place, every comment validated and none built, and only
// the item's four strings and the contents are copied out of it.
//
// keep, unless nil, says whether the caller will read this item's text
// at all. An item it refuses comes back with texts nil, and on JSONL its
// contents are never materialized: a detector's rule filter does not pay
// for the text of items it drops on their sales volume alone.
//
// A Reader is read through Next or NextTexts: the first call decides,
// the other then fails.
func (r *Reader) NextTexts(keep func(*ecom.Item) bool) (item *ecom.Item, texts []string, err error) {
	return r.next(true, keep)
}

// next reads an item from the format's decoder, opened on the first
// call for the kind of read that call makes.
func (r *Reader) next(texts bool, keep func(*ecom.Item) bool) (*ecom.Item, []string, error) {
	if r.dec == nil {
		// Sniff once. A short or empty stream cannot be columnar (the
		// container header alone is longer), so it goes down the JSONL
		// path, which reports empty input as a clean EOF.
		r.texts = texts
		prefix, _ := r.br.Peek(4)
		if colfmt.Sniff(prefix) {
			cr, err := newColReader(r.br, texts)
			if err != nil {
				return nil, nil, err
			}
			r.dec = cr
		} else {
			r.dec = newJSONLReader(r.br, texts)
		}
	}
	if r.texts != texts {
		return nil, nil, errors.New("dataset: Next and NextTexts mixed on one Reader")
	}
	return r.dec.next(keep)
}

// JSONLLines counts the JSONL lines read so far by decode path: fast,
// ecom.Decoder, or stdlib, encoding/json, some four times slower (the
// file-side twin of cats_http_decode_total). Zero on a columnar input.
func (r *Reader) JSONLLines() (fast, stdlib int) {
	if j, ok := r.dec.(*jsonlReader); ok {
		return j.fast, j.stdlib
	}
	return 0, 0
}

// Close closes the underlying file when the Reader owns one.
func (r *Reader) Close() error {
	if r.c != nil {
		return r.c.Close()
	}
	return nil
}

// jsonlReader decodes a line at a time with ecom.Decoder, and one that
// declines with encoding/json, so the source of every error text.
type jsonlReader struct {
	s            *bufio.Scanner
	line         int
	texts        bool
	dec          ecom.Decoder
	fast, stdlib int
}

func newJSONLReader(r io.Reader, texts bool) *jsonlReader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 1<<16), 1<<24) // comments can make long lines
	return &jsonlReader{s: s, texts: texts}
}

func (r *jsonlReader) next(keep func(*ecom.Item) bool) (*ecom.Item, []string, error) {
	for r.s.Scan() {
		r.line++
		b := r.s.Bytes()
		if len(b) == 0 {
			continue
		}
		item := new(ecom.Item)
		fast := r.dec.Line(b, r.texts, item)
		if fast {
			r.fast++
		} else {
			r.stdlib++
			*item = ecom.Item{}
			if err := json.Unmarshal(b, item); err != nil {
				return nil, nil, fmt.Errorf("dataset: line %d: %w", r.line, err)
			}
		}
		if !r.texts {
			return item, nil, nil
		}
		var texts []string
		switch {
		case keep != nil && !keep(item):
		case fast:
			texts = r.dec.Texts()
		case len(item.Comments) > 0:
			texts = make([]string, len(item.Comments))
			for i := range item.Comments {
				texts[i] = item.Comments[i].Content
			}
		}
		item.Comments = nil
		return item, texts, nil
	}
	if err := r.s.Err(); err != nil { // inside the line after the last one returned
		return nil, nil, fmt.Errorf("dataset: line %d: %w", r.line+1, err)
	}
	return nil, nil, io.EOF
}

// ReadAll loads a whole dataset from path.
func ReadAll(path string) (*ecom.Dataset, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	ds := &ecom.Dataset{Name: path}
	for {
		item, err := r.Next()
		if err == io.EOF {
			return ds, nil
		}
		if err != nil {
			return nil, err
		}
		ds.Items = append(ds.Items, *item)
	}
}
