package colfmt

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// validContainer builds a well-formed two-block container for the seed
// corpus.
func validContainer(kind byte) []byte {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, kind)
	var arena Arena
	var e Enc
	e.StringCol(&arena, []string{"a", "bb", "ccc"})
	e.IntCol([]int64{1, -2, 3})
	e.F64Col([]float64{0.5, -1.25})
	w.WriteBlock("arena", arena.Bytes())
	w.WriteBlock("cols", e.Bytes())
	return buf.Bytes()
}

// FuzzColfmtDecode feeds arbitrary bytes through the full container +
// column decode path: truncated streams, bit flips, wrong magic, and
// hostile counts must all surface as diagnosable errors, never panics,
// unbounded allocations, or non-termination.
func FuzzColfmtDecode(f *testing.F) {
	f.Add(validContainer(KindSnapshot))
	f.Add(validContainer(KindDataset))
	f.Add([]byte{})
	f.Add([]byte("CATC"))
	f.Add([]byte{'C', 'A', 'T', 'C', FormatVersion, KindSnapshot})
	f.Add([]byte(`{"version":1,"analyzer":{}}`))
	corrupted := validContainer(KindDataset)
	corrupted[len(corrupted)-3] ^= 0x10
	f.Add(corrupted)
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			requireDiagnosable(t, err)
			return
		}
		// The same container with arena blocks read into strings of
		// their own: the two payload readers must agree block for block.
		rs, _ := NewReader(bytes.NewReader(data))
		var arena string
		for blocks := 0; blocks < 1<<16; blocks++ {
			name, payload, err := r.Next()
			var arenaS string
			nameS, payloadS, errS := rs.NextArena(&arenaS)
			if (err == nil) != (errS == nil) || (err != nil && err.Error() != errS.Error()) {
				t.Fatalf("block %d: Next err %v, NextArena err %v", blocks, err, errS)
			}
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				requireDiagnosable(t, err)
				return
			}
			if name == "arena" {
				payloadS = []byte(arenaS)
			}
			if nameS != name || !bytes.Equal(payloadS, payload) {
				t.Fatalf("block %d: NextArena read %q (%d bytes), Next %q (%d bytes)", blocks, nameS, len(payloadS), name, len(payload))
			}
			if name == "arena" {
				arena = arenaS
				continue
			}
			// Drive every column getter over the payload; sticky errors
			// mean this can never panic regardless of content.
			var inner error
			err = r.Decode(name, payload, func(d *Dec) {
				_ = d.Uvarint()
				_ = d.Varint()
				_ = d.Str()
				_ = d.StringCol(arena)
				_ = d.IntCol()
				_ = d.IntsCol()
				_ = d.F64Col()
				_ = d.ByteCol()
				inner = d.Err()
			})
			if err != nil {
				requireDiagnosable(t, err)
			}
			if inner != nil && err != inner {
				t.Fatalf("block %q: Decode returned %v, the decoder's first failure was %v", name, err, inner)
			}
			// Each skip decoder accepts, rejects and consumes what its
			// builder does.
			for col, pair := range skipPairs(arena) {
				built, skipped := newDec(name, payload), newDec(name, payload)
				want, got := pair.build(built), pair.skip(skipped)
				if got != want || skipped.off != built.off || (built.Err() == nil) != (skipped.Err() == nil) {
					t.Fatalf("%s over block %q: skipped %d values to offset %d (err %v), built %d to %d (err %v)",
						col, name, got, skipped.off, skipped.Err(), want, built.off, built.Err())
				}
			}
		}
		t.Fatal("reader did not terminate")
	})
}

// requireDiagnosable asserts a decode failure carries the format
// version / block / offset context (or is a plain io error from the
// underlying reader).
func requireDiagnosable(t *testing.T, err error) {
	t.Helper()
	var ce *Error
	if errors.As(err, &ce) {
		if ce.Msg == "" {
			t.Fatalf("colfmt.Error without message: %#v", ce)
		}
		return
	}
	t.Fatalf("error is not a *colfmt.Error: %v", err)
}
