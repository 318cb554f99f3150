package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/colfmt"
	"repro/internal/ecom"
	"repro/internal/racetest"
)

// The projected read (Reader.NextTexts) against the full one
// (Reader.Next): same items, same texts, same verdict on every input.

// readRows drains data through Next.
func readRows(data []byte) (items []ecom.Item, err error) {
	r := NewReader(bytes.NewReader(data))
	for {
		item, err := r.Next()
		if errors.Is(err, io.EOF) {
			return items, nil
		}
		if err != nil {
			return items, err
		}
		items = append(items, *item)
	}
}

// readTexts drains data through NextTexts, with its predicate, and
// returns the items with their Texts beside them.
func readTexts(data []byte, keep func(*ecom.Item) bool) (items []ecom.Item, contents [][]string, err error) {
	r := NewReader(bytes.NewReader(data))
	for {
		item, err := r.NextTexts(keep)
		if errors.Is(err, io.EOF) {
			return items, contents, nil
		}
		if err != nil {
			return items, contents, err
		}
		it := *item
		contents, it.Texts = append(contents, it.Texts), nil
		items = append(items, it)
	}
}

// compareReads reads data through Next, through NextTexts, and through
// NextTexts refusing every other item's text, and reports the first
// disagreement: one read failing where another succeeds, or — up to
// where the first failure stopped them — a different number of items,
// an item-level field (refused items carry theirs too), a comment count
// or a comment's content, or texts on a refused item. rows is what Next
// decoded and failed whether the reads (all) ended in an error.
func compareReads(data []byte) (rows []ecom.Item, failed bool, diff error) {
	rows, rowsErr := readRows(data)
	for _, skipOdd := range []bool{false, true} {
		n := 0
		keep := func(*ecom.Item) bool { n++; return n%2 == 1 }
		if !skipOdd {
			keep = nil
		}
		items, texts, textsErr := readTexts(data, keep)
		if (rowsErr == nil) != (textsErr == nil) {
			return rows, true, fmt.Errorf("Next ended with %v, NextTexts (skip odd %v) with %v", rowsErr, skipOdd, textsErr)
		}
		if rowsErr != nil && rowsErr.Error() != textsErr.Error() {
			return rows, true, fmt.Errorf("Next diagnosed %q, NextTexts (skip odd %v) %q", rowsErr, skipOdd, textsErr)
		}
		if len(items) != len(rows) {
			return rows, rowsErr != nil, fmt.Errorf("NextTexts (skip odd %v) read %d items, Next %d", skipOdd, len(items), len(rows))
		}
		for i := range rows {
			if items[i].Comments != nil {
				return rows, rowsErr != nil, fmt.Errorf("item %d: NextTexts left %d Comments on the item", i, len(items[i].Comments))
			}
			want := rows[i]
			want.Comments = nil
			if !reflect.DeepEqual(items[i], want) {
				return rows, rowsErr != nil, fmt.Errorf("item %d: NextTexts (skip odd %v) %+v, Next %+v", i, skipOdd, items[i], want)
			}
			if skipOdd && i%2 == 1 {
				if texts[i] != nil {
					return rows, rowsErr != nil, fmt.Errorf("item %d: %d texts for an item the predicate refused", i, len(texts[i]))
				}
				continue
			}
			if len(texts[i]) != len(rows[i].Comments) {
				return rows, rowsErr != nil, fmt.Errorf("item %d: %d texts for %d comments", i, len(texts[i]), len(rows[i].Comments))
			}
			for j, c := range rows[i].Comments {
				if texts[i][j] != c.Content {
					return rows, rowsErr != nil, fmt.Errorf("item %d comment %d: text %q, content %q", i, j, texts[i][j], c.Content)
				}
			}
		}
	}
	return rows, rowsErr != nil, nil
}

func encode(t testing.TB, items []ecom.Item, f Format) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriterFormat(&buf, f)
	for i := range items {
		if err := w.Write(&items[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// chunkCrossers are items that fill more than one chunk each way a
// chunk fills: by item count (many items of few comments, some of none)
// and by comment count (few items of many).
func chunkCrossers() map[string][]ecom.Item {
	thin := make([]ecom.Item, colChunkItems+colChunkItems/2)
	for i := range thin {
		thin[i] = ecom.Item{ID: fmt.Sprintf("thin-%d", i), ShopID: "s", Name: "n", Category: "c", PriceCents: int64(i), SalesVolume: i % 9, Label: ecom.Label(i % 3)}
		for j := 0; j < i%3; j++ { // every third item has no comments
			thin[i].Comments = append(thin[i].Comments, ecom.Comment{ID: fmt.Sprintf("c%d", j), ItemID: thin[i].ID, Content: fmt.Sprintf("很好 %d/%d", i, j), UserID: "u", ExpVal: int64(j)})
		}
	}
	fat := make([]ecom.Item, 5)
	for i := range fat {
		fat[i] = ecom.Item{ID: fmt.Sprintf("fat-%d", i), SalesVolume: 50}
		for j := 0; j < colChunkComments/2+11; j++ {
			fat[i].Comments = append(fat[i].Comments, ecom.Comment{ID: "c", ItemID: fat[i].ID, Content: fmt.Sprintf("满意 %d", j%97)})
		}
	}
	return map[string][]ecom.Item{
		"synth": sample().Items,
		"thin":  thin,
		"fat":   fat,
		"bare":  {{ID: "only"}, {ID: "items"}, {}},
		"empty": nil,
	}
}

// TestProjectedReadMatchesRows: over corpora that cross chunk
// boundaries both ways, an empty dataset, items without comments and
// the JSONL twin of each, NextTexts returns Next's items without their
// comments and the comments' contents beside them.
func TestProjectedReadMatchesRows(t *testing.T) {
	for name, items := range chunkCrossers() {
		for _, f := range []Format{FormatColumnar, FormatJSONL} {
			rows, failed, diff := compareReads(encode(t, items, f))
			if diff != nil || failed {
				t.Fatalf("%s, format %d: failed %v, %v", name, f, failed, diff)
			}
			if len(rows) != len(items) {
				t.Fatalf("%s, format %d: read %d items, wrote %d", name, f, len(rows), len(items))
			}
		}
	}
}

// TestProjectedReadAllocatesNoComments: a projected columnar chunk builds
// no comments, so what it allocates per comment beyond the arena is the
// contents column's string header and nothing that grows with the six
// columns it skips.
func TestProjectedReadAllocatesNoComments(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	items := chunkCrossers()["fat"]
	data := encode(t, items, FormatColumnar)
	comments := 0
	for i := range items {
		comments += len(items[i].Comments)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := readTexts(data, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	// The arena's bytes are the file's, less framing and offsets.
	perComment := float64(after.TotalAlloc-before.TotalAlloc-uint64(len(data))) / float64(comments)
	if perComment > 24 {
		t.Fatalf("projected read allocated %.1f bytes per comment beyond the file's size, want <= 24 (a string header and change)", perComment)
	}
}

// TestReaderRefusesMixedReads: the first call fixes how a Reader
// decodes; the other call then fails instead of handing out items
// without comments, or comments nobody asked to be built.
func TestReaderRefusesMixedReads(t *testing.T) {
	for _, f := range []Format{FormatColumnar, FormatJSONL} {
		data := encode(t, sample().Items, f)
		r := NewReader(bytes.NewReader(data))
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.NextTexts(nil); err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("format %d: NextTexts after Next: %v", f, err)
		}
		if _, err := r.Next(); err != nil {
			t.Fatalf("format %d: the refused call broke the reader: %v", f, err)
		}
		r = NewReader(bytes.NewReader(data))
		if _, err := r.NextTexts(nil); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("format %d: Next after NextTexts: %v", f, err)
		}
	}
}

// chunk frames one arena/items/comments triple from hand-built
// payloads, with correct CRCs: what reaches the column decoders is
// exactly what the test wrote.
func chunk(t *testing.T, arena, items, comments []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := colfmt.NewWriter(&buf, colfmt.KindDataset)
	if err != nil {
		t.Fatal(err)
	}
	w.WriteBlock("arena", arena)
	w.WriteBlock("items", items)
	w.WriteBlock("future", []byte("a block this reader does not know"))
	if err := w.WriteBlock("comments", comments); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestProjectedReadRejectsWhatRowsReject: damage that sits inside a
// column the projected read skips — behind a valid CRC, so only the
// column checks can see it — is rejected by both reads with the same
// diagnosis. One case per check the full decode makes of a comment
// block, and the one check of the item block that no column length can
// stand in for: bytes left over after its last column.
func TestProjectedReadRejectsWhatRowsReject(t *testing.T) {
	const m = 3
	type cols struct {
		m                          uint64
		ids, contents, users, nick []string
		expvals, dates             []int64
		clients                    []byte
		ncomments                  []int
		trailing, itemsTrailing    []byte
		mangle                     func(arenaLen int, comments []byte) []byte
	}
	build := func(c cols) []byte {
		var arena colfmt.Arena
		var items, comments colfmt.Enc
		items.Uvarint(2)
		for i := 0; i < 4; i++ {
			items.StringCol(&arena, []string{"a", "b"})
		}
		items.IntCol([]int64{1, 2})
		items.IntCol([]int64{10, 20})
		items.ByteCol([]byte{0, 1})
		items.IntsCol(c.ncomments)
		items.Raw(c.itemsTrailing)
		comments.Uvarint(c.m)
		comments.StringCol(&arena, c.ids)
		comments.StringCol(&arena, c.contents)
		comments.StringCol(&arena, c.users)
		comments.StringCol(&arena, c.nick)
		comments.IntCol(c.expvals)
		comments.IntCol(c.dates)
		comments.ByteCol(c.clients)
		comments.Raw(c.trailing)
		payload := comments.Bytes()
		if c.mangle != nil {
			payload = c.mangle(arena.Len(), bytes.Clone(payload))
		}
		return chunk(t, arena.Bytes(), items.Bytes(), payload)
	}
	good := func() cols {
		return cols{m: m, ids: []string{"c1", "c2", "c3"}, contents: []string{"好", "很好", ""}, users: []string{"u1", "u2", "u3"},
			nick: []string{"n", "n", "n"}, expvals: []int64{1, 2, 3}, dates: []int64{4, 5, 6}, clients: []byte{0, 1, 2}, ncomments: []int{1, 2}}
	}
	if rows, failed, diff := compareReads(build(good())); failed || diff != nil || len(rows) != 2 || len(rows[1].Comments) != 2 {
		t.Fatalf("the undamaged chunk: failed %v, diff %v, %d items", failed, diff, len(rows))
	}
	// The ids column is the first thing in the payload after the count:
	// a uvarint length, a 4-byte base, then 4-byte end offsets.
	const idsBase, idsEnd0 = 2, 6
	cases := map[string]func(*cols){
		"skipped string column short":  func(c *cols) { c.users = c.users[:2] },
		"skipped string column long":   func(c *cols) { c.ids = append(c.ids, "c4") },
		"contents column short":        func(c *cols) { c.contents = c.contents[:2] },
		"skipped int column short":     func(c *cols) { c.dates = c.dates[:1] },
		"skipped byte column short":    func(c *cols) { c.clients = c.clients[:2] },
		"count disagrees with columns": func(c *cols) { c.m = 4 },
		"comment counts do not sum":    func(c *cols) { c.ncomments = []int{1, 1} },
		"negative comment count":       func(c *cols) { c.ncomments = []int{-1, 4} },
		"trailing bytes":               func(c *cols) { c.trailing = []byte{0} },
		"item block trailing bytes":    func(c *cols) { c.itemsTrailing = []byte{0} },
		"truncated inside a skipped":   func(c *cols) { c.mangle = func(_ int, p []byte) []byte { return p[:len(p)-2] } },
		"skipped end beyond the arena": func(c *cols) { c.mangle = func(n int, p []byte) []byte { p[idsEnd0+1] = 0x7f; return p } },
		"skipped ends run backwards": func(c *cols) {
			c.mangle = func(n int, p []byte) []byte { p[idsEnd0+4], p[idsEnd0+8] = p[idsEnd0+8], p[idsEnd0+4]; return p }
		},
		"skipped base beyond the arena": func(c *cols) { c.mangle = func(n int, p []byte) []byte { p[idsBase+2] = 0x7f; return p } },
		"skipped column count hostile":  func(c *cols) { c.mangle = func(n int, p []byte) []byte { p[1] = 0x7f; return p } },
	}
	for name, damage := range cases {
		c := good()
		damage(&c)
		_, failed, diff := compareReads(build(c))
		if diff != nil {
			t.Errorf("%s: the reads disagree: %v", name, diff)
		}
		if !failed {
			t.Errorf("%s: both reads accepted the chunk", name)
		}
	}

	// The JSONL twin: damage inside what a projected line read validates
	// and does not keep, on the second line — the one whose text the
	// skip-odd read refuses as well — is every read's error, in
	// encoding/json's words; what encoding/json reads leniently, every
	// read reads as it does.
	const goodLine = `{"item_id":"a","sales_volume":9,"comments":[{"comment_id":"c","comment_content":"好","nickname":"n","date":"2018-06-01T08:00:00Z"}]}`
	for name, c := range map[string]struct {
		line   string
		failed bool
	}{
		"canonical":                        {goodLine, false},
		"skipped string of the wrong type": {strings.Replace(goodLine, `"comment_id":"c"`, `"comment_id":12`, 1), true},
		"skipped date malformed":           {strings.Replace(goodLine, `2018-06-01T`, `2018-06-01 `, 1), true},
		"control byte in a skipped string": {strings.Replace(goodLine, `"nickname":"n"`, "\"nickname\":\"n\x01\"", 1), true},
		"skipped enum out of range":        {strings.Replace(goodLine, `"nickname":"n"`, `"client_information":256`, 1), true},
		"cut inside a skipped string":      {goodLine[:strings.Index(goodLine, `n","date`)], true},
		"bytes after the item":             {goodLine + "]", true},
		"lone surrogate, skipped string":   {strings.Replace(goodLine, `"nickname":"n"`, `"nickname":"\ud83d"`, 1), false},
		"invalid UTF-8 in a content":       {strings.Replace(goodLine, `好`, "\xff", 1), false},
		"unknown key among the skipped":    {strings.Replace(goodLine, `"nickname":"n"`, `"nick":{"a":[1]}`, 1), false},
		"comments null":                    {`{"item_id":"a","comments":null}`, false},
	} {
		rows, failed, diff := compareReads([]byte(goodLine + "\n" + c.line + "\n\n" + goodLine + "\n"))
		if diff != nil {
			t.Errorf("JSONL, %s: the reads disagree: %v", name, diff)
		}
		if failed != c.failed || (!failed && len(rows) != 3) {
			t.Errorf("JSONL, %s: failed %v with %d items, want failed %v", name, failed, len(rows), c.failed)
		}
	}
}

// FuzzProjectedReadDifferential: for arbitrary bytes the projected and
// the full read either both fail, with one diagnosis, or both succeed
// with equal ids, sales, labels, comment counts and contents; neither
// panics, and neither allocates beyond a small multiple of the input.
func FuzzProjectedReadDifferential(f *testing.F) {
	for _, items := range chunkCrossers() {
		items = items[:min(len(items), 6)] // small seeds mutate fast
		for i := range items {
			items[i].Comments = items[i].Comments[:min(len(items[i].Comments), 4)]
		}
		data := encode(f, items, FormatColumnar)
		f.Add(data)
		f.Add(data[:len(data)*2/3])
		f.Add(encode(f, items, FormatJSONL))
	}
	f.Add([]byte("CATC\x01\x02\x05arena\x80\x80\x80\x80\x04\x00\x00\x00\x00")) // 1 GiB declared, nothing delivered
	f.Add([]byte("CATC\x01\x02\x05arena\xff\xff"))
	f.Add([]byte(`{"item_id":"a","comments":[{"comment_id":"c","comment_content":"好"}]}` + "\n{bad"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, diff := compareReads(data)
		runtime.ReadMemStats(&after)
		if diff != nil {
			t.Fatal(diff)
		}
		// Three reads, each of which may hold every decoded byte a few
		// times over (arena, columns, rows, the comparison's prints),
		// on top of the readers' fixed buffers and the room a frame
		// gets before it has delivered anything (colfmt's payloadStep,
		// 4 MiB, for the arena string and for the scratch).
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(15<<20+600*len(data)); grew > limit {
			t.Fatalf("reading %d bytes allocated %d, limit %d", len(data), grew, limit)
		}
	})
}

// TestColumnarCorruptionEveryByte: TestColumnarCorruption's flipped bit
// in every position of a file, read both ways.
func TestColumnarCorruptionEveryByte(t *testing.T) {
	good := encode(t, sample().Items[:4], FormatColumnar)
	for at := range good {
		bad := bytes.Clone(good)
		bad[at] ^= 0x20
		_, failed, diff := compareReads(bad)
		if diff != nil {
			t.Fatalf("bit flipped at %d of %d: %v", at, len(good), diff)
		}
		if !failed {
			t.Fatalf("bit flipped at %d of %d read through to a clean EOF both ways", at, len(good))
		}
	}
}
