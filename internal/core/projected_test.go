package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/colfmt"
	"repro/internal/dataset"
	"repro/internal/ecom"
	"repro/internal/racetest"
	"repro/internal/synth"
)

// DetectStream reads its input projected (dataset.Reader.NextTexts):
// item-level fields and comment texts, no ecom.Comment. These tests
// hold that path to the row path — Reader.Next, then DetectWithFeatures
// — which stays the oracle.

// streamCorpora are inputs that fill more than one columnar chunk each
// way a chunk fills (2,048 items; 32,768 comments), plus the edge
// shapes: nothing at all, and items without comments.
func streamCorpora(t *testing.T) map[string][]ecom.Item {
	t.Helper()
	var thin []ecom.Item // ~2,500 items of ~10 comments: crosses the item bound
	_, err := synth.Stream(synth.Config{
		Name: "thin", Platform: "taobao", Seed: 404, FraudEvidence: 50, Normal: 2450,
		FraudCommentsMin: 8, FraudCommentsMax: 20, NormalCommentsMin: 3, NormalCommentsMax: 18,
	}, func(it *ecom.Item) error {
		if len(thin)%5 == 0 {
			it.SalesVolume = 1 // falls to the sales cutoff
		}
		thin = append(thin, *it)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 60 items of ~700 comments: crosses the comment bound, twice.
	var fat []ecom.Item
	for i := 0; i+40 <= len(thin) && len(fat) < 60; i += 40 {
		it := ecom.Item{ID: fmt.Sprintf("fat-%d", len(fat)), SalesVolume: 80, Label: thin[i].Label}
		for _, src := range thin[i : i+40] {
			it.Comments = append(it.Comments, src.Comments...)
		}
		fat = append(fat, it)
	}
	return map[string][]ecom.Item{
		"thin":  thin,
		"fat":   fat,
		"mixed": fusedTestItems(t), // sales cutoff, no signal, zero comments, an empty comment
		"bare":  {{ID: "a", SalesVolume: 50}, {ID: "b", SalesVolume: 1}, {}},
		"empty": nil,
	}
}

// TestDetectStreamProjectedMatchesRows: over every corpus and both
// formats, the detections DetectStream emits, the feature rows its
// scoring computes and the comments it counts are those of
// DetectWithFeatures over the rows Reader.Next decodes — bit for bit —
// and emit sees each item's item-level fields with Comments nil.
func TestDetectStreamProjectedMatchesRows(t *testing.T) {
	d := sharedDetector(t)
	ctx := context.Background()
	for name, items := range streamCorpora(t) {
		for formatName, format := range map[string]dataset.Format{"jsonl": dataset.FormatJSONL, "columnar": dataset.FormatColumnar} {
			name := name + "/" + formatName
			data := encodeItems(t, items, format)

			var rows []ecom.Item
			r := dataset.NewReader(bytes.NewReader(data))
			for {
				item, err := r.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				rows = append(rows, *item)
			}
			if len(rows) != len(items) {
				t.Fatalf("%s: read %d rows, wrote %d items", name, len(rows), len(items))
			}
			counted := d.m.commentsAnalyzed.Value()
			wantDets, wantX, err := d.DetectWithFeatures(ctx, rows, 2)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			wantCounted := d.m.commentsAnalyzed.Value() - counted

			// The stream itself: detections, the emit contract, the counter.
			counted = d.m.commentsAnalyzed.Value()
			n := 0
			stats, err := d.DetectStream(ctx, dataset.NewReader(bytes.NewReader(data)), StreamOptions{Workers: 2},
				func(item *ecom.Item, det Detection) error {
					if item.Comments != nil {
						t.Fatalf("%s: emit %d: item carries %d Comments", name, n, len(item.Comments))
					}
					// The row, projected: its contents as Texts, unless the
					// sales cutoff told the read not to materialize them.
					got, want := *item, rows[n]
					want.Texts, want.Comments = nil, nil
					if d.readsText(&want) {
						want.Texts = rows[n].AppendTexts(nil)
					}
					if len(got.Texts) == 0 {
						got.Texts = nil // a columnar read cuts an empty one
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: emit %d: item %+v, row %+v", name, n, got, want)
					}
					if det != wantDets[n] {
						t.Fatalf("%s: emit %d: stream %+v, rows %+v", name, n, det, wantDets[n])
					}
					n++
					return nil
				})
			if err != nil || n != len(rows) || stats.Items != n {
				t.Fatalf("%s: %d emits of %d, stats %+v, err %v", name, n, len(rows), stats, err)
			}
			if got := d.m.commentsAnalyzed.Value() - counted; got != wantCounted {
				t.Fatalf("%s: cats_pipeline_comments_total moved by %d over the stream, %d over the rows", name, got, wantCounted)
			}

			// The feature rows, from the scoring call the stream makes.
			var projected []ecom.Item
			r = dataset.NewReader(bytes.NewReader(data))
			for {
				item, err := r.NextTexts(nil)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				projected = append(projected, *item)
			}
			gotDets, gotX, err := d.scoreBatch(ctx, projected, 2)
			if err != nil || len(gotX) != len(wantX) {
				t.Fatalf("%s: %d feature rows of %d, err %v", name, len(gotX), len(wantX), err)
			}
			for i := range wantX {
				if gotDets[i] != wantDets[i] || len(gotX[i]) != len(wantX[i]) {
					t.Fatalf("%s: item %d: projected %+v with %d features, rows %+v with %d", name, i, gotDets[i], len(gotX[i]), wantDets[i], len(wantX[i]))
				}
				for j := range wantX[i] {
					if math.Float64bits(gotX[i][j]) != math.Float64bits(wantX[i][j]) {
						t.Fatalf("%s: item %d feature %d: projected %v, rows %v", name, i, j, gotX[i][j], wantX[i][j])
					}
				}
			}
		}
	}
}

// TestScoreBatchReadsNoTextUnderTheCutoff: the predicate DetectStream
// hands the projected read is the one analyzeOne returns on, so what an
// item under the sales cutoff has for texts — nothing, as the read then
// leaves it, or its comments, or anything else — is never looked at:
// same detections, no feature row, and the comments counter moves by the
// other items' comments alone.
func TestScoreBatchReadsNoTextUnderTheCutoff(t *testing.T) {
	d := sharedDetector(t)
	ctx := context.Background()
	for formatName, format := range map[string]dataset.Format{"jsonl": dataset.FormatJSONL, "columnar": dataset.FormatColumnar} {
		data := encodeItems(t, streamCorpora(t)["thin"], format)
		read := func(keep func(*ecom.Item) bool) (items []ecom.Item) {
			r := dataset.NewReader(bytes.NewReader(data))
			for {
				item, err := r.NextTexts(keep)
				if errors.Is(err, io.EOF) {
					return items
				}
				if err != nil {
					t.Fatalf("%s: %v", formatName, err)
				}
				items = append(items, *item)
			}
		}
		items, pushed := read(nil), read(d.readsText)
		poisoned := slices.Clone(items)
		under, wantCounted := 0, uint64(0)
		for i := range items {
			if d.readsText(&items[i]) {
				wantCounted += uint64(len(items[i].Texts))
				continue
			}
			under++
			poisoned[i].Texts = []string{"好评 很好 满意", "\xff"}
			if pushed[i].Texts != nil {
				t.Fatalf("%s: item %d is under the cutoff and the pushed-down read returned %d texts", formatName, i, len(pushed[i].Texts))
			}
		}
		if under == 0 || under == len(items) {
			t.Fatalf("%s: %d of %d items under the cutoff; the corpus must have both kinds", formatName, under, len(items))
		}
		want, wantX, err := d.scoreBatch(ctx, items, 2)
		if err != nil {
			t.Fatal(err)
		}
		for name, items := range map[string][]ecom.Item{"pushed down": pushed, "poisoned": poisoned} {
			counted := d.m.commentsAnalyzed.Value()
			got, gotX, err := d.scoreBatch(ctx, items, 2)
			if err != nil || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotX, wantX) {
				t.Errorf("%s, %s: detections or feature rows differ from the full texts' (err %v)", formatName, name, err)
			}
			if moved := d.m.commentsAnalyzed.Value() - counted; moved != wantCounted {
				t.Errorf("%s, %s: cats_pipeline_comments_total moved by %d, want %d", formatName, name, moved, wantCounted)
			}
		}
		for i := range items {
			if !d.readsText(&items[i]) && (wantX[i] != nil || !want[i].Filtered) {
				t.Fatalf("%s: item %d under the cutoff got a feature row or passed the filter", formatName, i)
			}
		}
	}
}

// tinyColumnar is n one-comment items in the columnar format, and the
// offset of each of its chunks' first byte.
func tinyColumnar(t *testing.T, n int) (data []byte, chunkStarts []int64) {
	t.Helper()
	data = encodeItems(t, tinyItems(n), dataset.FormatColumnar)
	r, err := colfmt.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for {
		at := r.Offset()
		name, _, err := r.Next()
		if errors.Is(err, io.EOF) {
			return data, chunkStarts
		}
		if err != nil {
			t.Fatal(err)
		}
		if name == "arena" {
			chunkStarts = append(chunkStarts, at)
		}
	}
}

// panicReader delivers its first limit bytes and panics when asked for
// more: an input whose decoder has a bug.
type panicReader struct {
	r     io.Reader
	limit int64
}

func (p *panicReader) Read(b []byte) (int, error) {
	if p.limit <= 0 {
		panic("panicReader: read past the limit")
	}
	n, err := p.r.Read(b[:min(int64(len(b)), p.limit)])
	p.limit -= int64(n)
	return n, err
}

// TestDetectStreamContainsStagePanics: a panic on the read goroutine
// (the input panics on its third chunk, or inside the very first batch,
// where no goroutine exists yet) or on the score goroutine (a detector
// without an extractor) comes back from DetectStream as an error naming
// the stage — after every full batch before it was emitted, with no
// goroutine left behind — instead of ending the process.
func TestDetectStreamContainsStagePanics(t *testing.T) {
	good := sharedDetector(t)
	data, starts := tinyColumnar(t, 5000)
	if len(starts) != 3 {
		t.Fatalf("%d chunks, want 3", len(starts))
	}
	// The model without the extractor: scoring dereferences nil. One
	// worker keeps the analysis on the score stage's own goroutine.
	broken := *good
	broken.extractor = nil
	cases := []struct {
		name      string
		det       *Detector
		limit     int64
		wantEmits int
		wantStage string
	}{
		{"third chunk", good, starts[2] + 10, 4096, "read"}, // two chunks of 2,048 are four full batches
		{"first batch", good, starts[0] + 10, 0, "read"},
		{"score", &broken, math.MaxInt64, 0, "score"},
	}
	for _, c := range cases {
		base := runtime.NumGoroutine()
		emits := 0
		_, err := c.det.DetectStream(context.Background(),
			dataset.NewReader(&panicReader{r: bytes.NewReader(data), limit: c.limit}), StreamOptions{Workers: 1},
			func(*ecom.Item, Detection) error { emits++; return nil })
		if err == nil || !strings.Contains(err.Error(), "stream "+c.wantStage+" stage panicked") {
			t.Fatalf("%s: err = %v, want the %s stage's panic", c.name, err, c.wantStage)
		}
		if !strings.Contains(err.Error(), "goroutine ") {
			t.Fatalf("%s: the error carries no stack: %v", c.name, err)
		}
		if emits != c.wantEmits {
			t.Fatalf("%s: %d emits before the panic surfaced, want %d", c.name, emits, c.wantEmits)
		}
		settleGoroutines(t, base, c.name)
	}
}

// arenaBytes sums the arena blocks of a columnar dataset and reports the
// largest.
func arenaBytes(t *testing.T, data []byte) (n, largest int) {
	t.Helper()
	r, err := colfmt.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for {
		name, payload, err := r.Next()
		if errors.Is(err, io.EOF) {
			return n, largest
		}
		if err != nil {
			t.Fatal(err)
		}
		if name == "arena" {
			n += len(payload)
			largest = max(largest, len(payload))
		}
	}
}

// TestDetectStreamColumnarAllocationBudget: what the columnar stream
// allocates for one more comment beyond that comment's arena bytes —
// its share of the contents column, the item block, the detections and
// the feature rows — stays under 64 bytes. Building rows cost about 200
// on top (a 120-byte ecom.Comment, four string headers and two int64s
// per comment), which is the resident set this path gave back; the
// budget keeps it. Measured as the difference between a corpus and the
// same corpus twice over, which cancels what a run pays once: the
// batches, the read buffers, the first chunk's regrowth.
func TestDetectStreamColumnarAllocationBudget(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	d := sharedDetector(t)
	once := streamCorpora(t)["thin"]
	once = append(once, once...) // two and a half chunks
	allocated := func(items []ecom.Item) (total, arenas, comments int) {
		data := encodeItems(t, items, dataset.FormatColumnar)
		for i := range items {
			comments += len(items[i].Comments)
		}
		run := func() {
			_, err := d.DetectStream(context.Background(), dataset.NewReader(bytes.NewReader(data)), StreamOptions{Workers: 2},
				func(*ecom.Item, Detection) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the analysis scratch pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		arenas, _ = arenaBytes(t, data)
		return int(after.TotalAlloc - before.TotalAlloc), arenas, comments
	}
	total1, arenas1, comments1 := allocated(once)
	total2, arenas2, comments2 := allocated(append(once, once...))
	perComment := float64((total2-total1)-(arenas2-arenas1)) / float64(comments2-comments1)
	t.Logf("%d more comments, %d more arena bytes, %d more bytes allocated: %.1f per comment beyond the arenas",
		comments2-comments1, arenas2-arenas1, total2-total1, perComment)
	if perComment > 64 {
		t.Fatalf("columnar stream allocated %.1f bytes per comment beyond its arenas, budget 64", perComment)
	}
}

// TestDetectStreamRetainsNoChunk: when a columnar stream has returned,
// nothing of its chunks is still reachable. Every string a chunk hands
// out — item ids and names, comment texts — aliases that chunk's arena,
// so one of them kept anywhere (a package-level map key, a channel, a
// closure, an ecom.Item field copied in another package) keeps the
// whole arena alive, and a stream that does it per item keeps the
// corpus. Seven chunks go through; the live heap may grow by two arenas
// (DESIGN §13 leaves a single pinned string, one chunk at most,
// unguarded).
func TestDetectStreamRetainsNoChunk(t *testing.T) {
	if racetest.Enabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	d := sharedDetector(t)
	thin := streamCorpora(t)["thin"]
	var items []ecom.Item
	for rep := 0; rep < 6; rep++ { // distinct ids: a map keyed by them grows
		for _, it := range thin {
			it.ID = fmt.Sprintf("%d-%s", rep, it.ID)
			items = append(items, it)
		}
	}
	data := encodeItems(t, items, dataset.FormatColumnar)
	_, arena := arenaBytes(t, data)
	run := func(data []byte) {
		_, err := d.DetectStream(context.Background(), dataset.NewReader(bytes.NewReader(data)), StreamOptions{Workers: 2},
			func(*ecom.Item, Detection) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC() // the second empties the pools' victim caches
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	run(encodeItems(t, thin[:64], dataset.FormatColumnar)) // whatever a first stream builds once
	items = nil
	before := live()
	run(data)
	after := live()
	t.Logf("%d bytes of corpus, largest arena %d: live heap %d -> %d", len(data), arena, before, after)
	if after > before+2*uint64(arena) {
		t.Fatalf("live heap grew %d bytes across a returned stream, more than two arenas (%d each): a chunk string is still referenced",
			after-before, arena)
	}
	runtime.KeepAlive(data) // the corpus itself is in both readings
}
