package colfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/racetest"
)

func TestHeaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, KindSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock("meta", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if !Sniff(buf.Bytes()) {
		t.Fatal("written container does not sniff as columnar")
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind() != KindSnapshot {
		t.Fatalf("kind = %d, want %d", r.Kind(), KindSnapshot)
	}
	name, payload, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if name != "meta" || string(payload) != "hello" {
		t.Fatalf("block = %q %q", name, payload)
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("want io.EOF at container end, got %v", err)
	}
}

func TestSniff(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want bool
	}{
		{"CATC", true},
		{"CATCxx", true},
		{"CAT", false},
		{"", false},
		{`{"version":1}`, false},
		{"catc", false},
	} {
		if got := Sniff([]byte(tc.in)); got != tc.want {
			t.Errorf("Sniff(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// newDec is the decoder Reader.Decode builds, for tests that drive one
// by hand and look at it between reads.
func newDec(block string, payload []byte) *Dec {
	return &Dec{version: FormatVersion, block: block, b: payload}
}

// decodeBlock runs fn under Reader.Decode, the way the snapshot and
// dataset readers decode a block.
func decodeBlock(block string, payload []byte, fn func(*Dec)) error {
	return (&Reader{version: FormatVersion}).Decode(block, payload, fn)
}

// TestDecodeOwnsTheFinalCheck: whatever fn does with its decoder, Decode
// answers with Done — nil only when fn read the payload exactly.
func TestDecodeOwnsTheFinalCheck(t *testing.T) {
	var e Enc
	e.Uvarint(7)
	e.U32(9)
	var got uint64
	if err := decodeBlock("blk", e.Bytes(), func(d *Dec) { got = d.Uvarint(); d.U32() }); err != nil || got != 7 {
		t.Fatalf("exact read: got %d, err %v", got, err)
	}
	// Under-read: the bytes fn left are corruption.
	err := decodeBlock("blk", e.Bytes(), func(d *Dec) { d.Uvarint() })
	var ce *Error
	if !errors.As(err, &ce) || ce.Block != "blk" || !strings.Contains(ce.Msg, "4 trailing bytes") {
		t.Fatalf("under-read: err %v", err)
	}
	// Over-read: the first failure is the one reported, not a later one
	// and not the (absent) trailing bytes.
	err = decodeBlock("blk", e.Bytes(), func(d *Dec) {
		d.Uvarint()
		d.F64() // 4 bytes left
		d.Failf("a later failure")
		d.Uvarint()
	})
	if !errors.As(err, &ce) || ce.Msg != "truncated f64" || ce.Offset != 1 {
		t.Fatalf("over-read: err %v", err)
	}
	// fn ignoring a failure it caused cannot make Decode succeed.
	if err := decodeBlock("blk", e.Bytes(), func(d *Dec) { d.Uvarint(); d.U32(); d.Failf("shape mismatch") }); err == nil {
		t.Fatal("Failf inside fn did not fail Decode")
	}
}

func TestColumnsRoundTrip(t *testing.T) {
	var arena Arena
	var e Enc
	strs := []string{"", "a", "hello", strings.Repeat("x", 300), ""}
	ints := []int64{0, -1, 1, math.MaxInt64, math.MinInt64}
	floats := []float64{0, -0.0, 1.5, math.Inf(1), math.SmallestNonzeroFloat64, math.Pi}
	bts := []byte{0, 1, 255}

	e.Uvarint(42)
	e.Varint(-7)
	e.Str("scalar")
	e.Bool(true)
	e.Byte(9)
	e.F64(2.5)
	e.StringCol(&arena, strs)
	e.IntCol(ints)
	e.IntsCol([]int{3, -4})
	e.F64Col(floats)
	e.ByteCol(bts)

	d := newDec("t", e.Bytes())
	as := string(arena.Bytes())
	if got := d.Uvarint(); got != 42 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := d.Varint(); got != -7 {
		t.Fatalf("Varint = %d", got)
	}
	if got := d.Str(); got != "scalar" {
		t.Fatalf("Str = %q", got)
	}
	if !d.Bool() {
		t.Fatal("Bool = false")
	}
	if got := d.Byte(); got != 9 {
		t.Fatalf("Byte = %d", got)
	}
	if got := d.F64(); got != 2.5 {
		t.Fatalf("F64 = %v", got)
	}
	gotStrs := d.StringCol(as)
	if len(gotStrs) != len(strs) {
		t.Fatalf("StringCol len = %d", len(gotStrs))
	}
	for i := range strs {
		if gotStrs[i] != strs[i] {
			t.Fatalf("string %d = %q, want %q", i, gotStrs[i], strs[i])
		}
	}
	gotInts := d.IntCol()
	for i := range ints {
		if gotInts[i] != ints[i] {
			t.Fatalf("int %d = %d, want %d", i, gotInts[i], ints[i])
		}
	}
	if gi := d.IntsCol(); gi[0] != 3 || gi[1] != -4 {
		t.Fatalf("IntsCol = %v", gi)
	}
	gotF := d.F64Col()
	for i := range floats {
		if math.Float64bits(gotF[i]) != math.Float64bits(floats[i]) {
			t.Fatalf("float %d bits differ: %v vs %v", i, gotF[i], floats[i])
		}
	}
	if gb := d.ByteCol(); !bytes.Equal(gb, bts) {
		t.Fatalf("ByteCol = %v", gb)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestStringColZeroCopy(t *testing.T) {
	var arena Arena
	var e Enc
	e.StringCol(&arena, []string{"alpha", "beta"})
	as := string(arena.Bytes())
	d := newDec("t", e.Bytes())
	got := d.StringCol(as)
	// Zero-copy contract: the decoded strings are slices of the arena
	// string, not fresh allocations.
	if got[0] != as[0:5] || got[1] != as[5:9] {
		t.Fatalf("decoded strings %q do not match arena slices of %q", got, as)
	}
}

func TestCRCDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, KindDataset)
	if err := w.WriteBlock("data", []byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)-1] ^= 0x40 // flip a payload bit

	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = r.Next()
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("want *Error, got %v", err)
	}
	if ce.Block != "data" || !strings.Contains(ce.Msg, "crc mismatch") {
		t.Fatalf("error = %v", ce)
	}
	if ce.Version != FormatVersion || ce.Offset == 0 {
		t.Fatalf("error missing diagnostics: %+v", ce)
	}
}

func TestTruncatedContainer(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, KindDataset)
	w.WriteBlock("data", bytes.Repeat([]byte("z"), 100))
	full := buf.Bytes()

	// Every strict prefix must fail with a diagnosable error (or a
	// clean EOF exactly at the block boundary), never a panic.
	for cut := 0; cut < len(full); cut++ {
		r, err := NewReader(bytes.NewReader(full[:cut]))
		if err != nil {
			if cut >= headerSize {
				t.Fatalf("header rejected at cut %d: %v", cut, err)
			}
			continue
		}
		_, _, err = r.Next()
		if err == nil {
			t.Fatalf("cut %d: truncated block decoded successfully", cut)
		}
		if err == io.EOF && cut != headerSize {
			t.Fatalf("cut %d: clean EOF inside a frame", cut)
		}
	}
}

func TestBadMagicAndVersionAndKind(t *testing.T) {
	if _, err := NewReader(strings.NewReader(`{"json":1}`)); err == nil {
		t.Fatal("JSON accepted as columnar")
	}
	bad := []byte{'C', 'A', 'T', 'C', 99, KindSnapshot}
	if _, err := NewReader(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted: %v", err)
	}
	bad = []byte{'C', 'A', 'T', 'C', FormatVersion, 77}
	if _, err := NewReader(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("unknown kind accepted: %v", err)
	}
}

func TestDecStickyErrors(t *testing.T) {
	d := newDec("blk", []byte{0x01}) // one byte: not enough for a u32
	_ = d.U32()
	if d.Err() == nil {
		t.Fatal("truncated u32 not detected")
	}
	// Subsequent reads return zero values without panicking and the
	// first error is retained.
	first := d.Err().Error()
	_ = d.F64()
	_ = d.StringCol("")
	if d.Err().Error() != first {
		t.Fatal("sticky error was replaced")
	}
	var ce *Error
	if !errors.As(d.Err(), &ce) || ce.Block != "blk" {
		t.Fatalf("error lacks block context: %v", d.Err())
	}
}

func TestDecCountGuard(t *testing.T) {
	// A column claiming 2^40 floats inside a 10-byte payload must fail
	// before allocating.
	var e Enc
	e.Uvarint(1 << 40)
	payload := append(e.Bytes(), 1, 2, 3)
	var got []float64
	if err := decodeBlock("t", payload, func(d *Dec) { got = d.F64Col() }); got != nil || err == nil {
		t.Fatalf("oversized count decoded: %v, err %v", got, err)
	}
	// The skip decoders sit behind the same guard as the columns they
	// skip, with the same diagnosis.
	for name, pair := range skipPairs("some arena") {
		built, skipped := newDec("t", payload), newDec("t", payload)
		pair.build(built)
		if n := pair.skip(skipped); n != 0 || skipped.Err() == nil {
			t.Fatalf("%s: oversized count skipped as %d values, err %v", name, n, skipped.Err())
		}
		if built.Err() == nil || built.Err().Error() != skipped.Err().Error() {
			t.Fatalf("%s: skip diagnosed %q, build %q", name, skipped.Err(), built.Err())
		}
	}
}

// TestF64sGuard: F64s reads exactly the floats F64 wrote, and a count
// the payload cannot hold fails before allocating.
func TestF64sGuard(t *testing.T) {
	var e Enc
	for _, v := range []float64{1.5, -2, 0} {
		e.F64(v)
	}
	d := newDec("t", e.Bytes())
	if got := d.F64s(3); len(got) != 3 || got[0] != 1.5 || got[1] != -2 || got[2] != 0 || d.Done() != nil {
		t.Fatalf("F64s(3) = %v, err %v", got, d.Done())
	}
	for _, n := range []int{4, 1 << 40, -1} {
		d := newDec("t", e.Bytes())
		got := d.F64s(n)
		var ce *Error
		if got != nil || !errors.As(d.Err(), &ce) || ce.Offset != 0 {
			t.Fatalf("F64s(%d) over 24 bytes = %d floats, err %v; want a failure at offset 0", n, len(got), d.Err())
		}
	}
}

// skipPairs is every column decoder that has a skip form, beside it.
// build returns the built column's length.
func skipPairs(arena string) map[string]struct {
	build func(*Dec) int
	skip  func(*Dec) int
} {
	type pair = struct {
		build func(*Dec) int
		skip  func(*Dec) int
	}
	return map[string]pair{
		"StringCol": {func(d *Dec) int { return len(d.StringCol(arena)) }, func(d *Dec) int { return d.SkipStringCol(arena) }},
		"IntCol":    {func(d *Dec) int { return len(d.IntCol()) }, (*Dec).SkipIntCol},
		"ByteCol":   {func(d *Dec) int { return len(d.ByteCol()) }, (*Dec).SkipByteCol},
	}
}

// TestSkipDecodersMatchBuilders: over well-formed columns and over every
// truncation of them, a skip decoder reports the length its builder
// builds, stops at the same offset and fails with the same diagnosis —
// and allocates nothing.
func TestSkipDecodersMatchBuilders(t *testing.T) {
	var arena Arena
	cols := map[string]func(*Enc){
		"StringCol": func(e *Enc) { e.StringCol(&arena, []string{"a", "", "ccc", "很好"}) },
		"IntCol":    func(e *Enc) { e.IntCol([]int64{0, -1, 1 << 40, -(1 << 62)}) },
		"ByteCol":   func(e *Enc) { e.ByteCol([]byte{0, 1, 2, 255}) },
	}
	for name, write := range cols {
		var e Enc
		write(&e)
		e.Uvarint(99) // what follows the column
		pair := skipPairs(string(arena.Bytes()))[name]
		for cut := len(e.Bytes()); cut >= 0; cut-- {
			payload := e.Bytes()[:cut]
			built, skipped := newDec("t", payload), newDec("t", payload)
			want, got := pair.build(built), pair.skip(skipped)
			if got != want || skipped.off != built.off {
				t.Fatalf("%s cut at %d: skipped %d values to offset %d, built %d to %d", name, cut, got, skipped.off, want, built.off)
			}
			if (built.Err() == nil) != (skipped.Err() == nil) || (built.Err() != nil && built.Err().Error() != skipped.Err().Error()) {
				t.Fatalf("%s cut at %d: skip err %v, build err %v", name, cut, skipped.Err(), built.Err())
			}
		}
		if racetest.Enabled {
			continue
		}
		d := newDec("t", e.Bytes())
		if allocs := testing.AllocsPerRun(20, func() { d.off = 0; pair.skip(d) }); allocs != 0 {
			t.Fatalf("%s: skip decoder allocated %.0f times", name, allocs)
		}
	}
}

func TestStringColBounds(t *testing.T) {
	// End offsets beyond the arena, or moving backwards, are corruption.
	var e Enc
	e.Uvarint(1) // one string
	e.U32(0)     // base
	e.U32(100)   // end beyond arena
	var got []string
	err := decodeBlock("t", e.Bytes(), func(d *Dec) { got = d.StringCol("short") })
	if got != nil || err == nil {
		t.Fatalf("out-of-bounds string decoded: %v", got)
	}
	requireSkipRejects(t, e.Bytes(), "short", err)

	var e2 Enc
	e2.Uvarint(2)
	e2.U32(3) // base
	e2.U32(5)
	e2.U32(2) // backwards
	err = decodeBlock("t", e2.Bytes(), func(d *Dec) { got = d.StringCol("abcdefgh") })
	if got != nil || err == nil {
		t.Fatalf("backwards string offsets decoded: %v", got)
	}
	requireSkipRejects(t, e2.Bytes(), "abcdefgh", err)

	var e3 Enc
	e3.Uvarint(0)
	e3.U32(9) // base beyond the arena, on a column with no strings
	err = decodeBlock("t", e3.Bytes(), func(d *Dec) { d.StringCol("abcdefgh") })
	if err == nil {
		t.Fatal("string column base beyond the arena decoded")
	}
	requireSkipRejects(t, e3.Bytes(), "abcdefgh", err)
}

// requireSkipRejects: SkipStringCol fails on payload with the diagnosis
// StringCol gave.
func requireSkipRejects(t *testing.T, payload []byte, arena string, want error) {
	t.Helper()
	n := -1
	err := decodeBlock("t", payload, func(d *Dec) { n = d.SkipStringCol(arena) })
	if n != 0 || err == nil || err.Error() != want.Error() {
		t.Fatalf("SkipStringCol = %d, err %v; StringCol failed with %v", n, err, want)
	}
}

func TestDoneRejectsTrailingBytes(t *testing.T) {
	var e Enc
	e.Uvarint(7)
	payload := append(e.Bytes(), 0xAA)
	var got uint64
	err := decodeBlock("t", payload, func(d *Dec) { got = d.Uvarint() })
	if got != 7 {
		t.Fatalf("Uvarint = %d", got)
	}
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes accepted: %v", err)
	}
}

func TestUnknownBlocksSkippable(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, KindSnapshot)
	w.WriteBlock("future-block", []byte("from a newer writer"))
	w.WriteBlock("meta", []byte("m"))
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for {
		name, _, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	if len(names) != 2 || names[0] != "future-block" || names[1] != "meta" {
		t.Fatalf("blocks = %v", names)
	}
}

func TestWriterRejectsBadBlockNames(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, KindSnapshot)
	if err := w.WriteBlock("", nil); err == nil {
		t.Fatal("empty block name accepted")
	}
	w2, _ := NewWriter(&buf, KindSnapshot)
	if err := w2.WriteBlock(strings.Repeat("n", 300), nil); err == nil {
		t.Fatal("overlong block name accepted")
	}
}

// TestPayloadAllocationFollowsInput: a frame may declare any payload
// length up to the 2 GiB cap, so the length alone must not size an
// allocation. Twenty-one bytes — header, block name "arena", a length of
// 1 GiB, four CRC bytes and nothing else — used to cost a 1 GiB make
// before the first payload byte was asked for. Both payload readers now
// make room for payloadStep and grow past it only with bytes that came.
func TestPayloadAllocationFollowsInput(t *testing.T) {
	hostile := []byte{'C', 'A', 'T', 'C', FormatVersion, KindDataset, 5, 'a', 'r', 'e', 'n', 'a'}
	hostile = binary.AppendUvarint(hostile, 1<<30)
	hostile = append(hostile, 0, 0, 0, 0)
	if len(hostile) != 21 {
		t.Fatalf("the hostile file is %d bytes, want 21", len(hostile))
	}
	for _, asString := range []bool{false, true} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readBlocks(hostile, asString)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("as string %v: err %v, want unexpected EOF", asString, err)
		}
		// (The race detector's allocator doubles the count.)
		if grew := after.TotalAlloc - before.TotalAlloc; !racetest.Enabled && grew > payloadStep+1<<20 {
			t.Fatalf("as string %v: allocated %d bytes for a 21-byte file", asString, grew)
		}
	}
}

// readBlocks reads a container of blocks all named "arena" to its end,
// through Next or — asString — with each payload read into a string of
// its own by NextArena. err is what ended the read, io.EOF included.
func readBlocks(data []byte, asString bool) (payloads []string, err error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	for {
		var p string
		if asString {
			_, _, err = r.NextArena(&p)
		} else {
			var b []byte
			_, b, err = r.Next()
			p = string(b)
		}
		if err != nil {
			return payloads, err
		}
		payloads = append(payloads, p)
	}
}

// TestPayloadReadersAgree: NextArena reads into its string the bytes
// Next returns, for a payload longer than payloadStep (both readers
// grow) and for short ones, and both catch a flipped bit anywhere in a
// payload and a container cut short.
func TestPayloadReadersAgree(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), payloadStep/16+50_000) // past payloadStep
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, KindDataset)
	for _, p := range [][]byte{big, nil, big[:70_000], []byte("x"), big[:1<<16]} {
		if err := w.WriteBlock("arena", p); err != nil {
			t.Fatal(err)
		}
	}
	data := buf.Bytes()
	want, err := readBlocks(data, false)
	if err != io.EOF || len(want) != 5 || want[0] != string(big) {
		t.Fatalf("Next read %d blocks, err %v", len(want), err)
	}
	got, err := readBlocks(data, true)
	if err != io.EOF || !slices.Equal(got, want) {
		t.Fatalf("NextArena read %d blocks (err %v) that differ from Next's", len(got), err)
	}
	for _, at := range []int{30, len(big) / 2, len(big) + 5, len(data) - 1} {
		bad := bytes.Clone(data)
		bad[at] ^= 0x04
		_, errBytes := readBlocks(bad, false)
		_, errString := readBlocks(bad, true)
		if errBytes == io.EOF || errString == io.EOF || errBytes.Error() != errString.Error() {
			t.Fatalf("bit flipped at %d: Next %v, NextArena %v", at, errBytes, errString)
		}
	}
	for _, cut := range []int{len(data) - 1, len(big), 40} {
		_, errBytes := readBlocks(data[:cut], false)
		_, errString := readBlocks(data[:cut], true)
		if !errors.Is(errBytes, io.ErrUnexpectedEOF) || !errors.Is(errString, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: Next %v, NextArena %v, want unexpected EOF from both", cut, errBytes, errString)
		}
	}
}
