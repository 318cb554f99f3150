package dataset

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ecom"
	"repro/internal/synth"
)

// TestColumnarRoundTripFile checks full item equality — every field,
// including comment dates and clients — through the columnar file path.
func TestColumnarRoundTripFile(t *testing.T) {
	ds := sample()
	path := filepath.Join(t.TempDir(), "items.catc")
	if err := WriteAllFormat(path, ds, FormatColumnar); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Items) != len(ds.Items) {
		t.Fatalf("read %d items, want %d", len(back.Items), len(ds.Items))
	}
	for i := range ds.Items {
		if !reflect.DeepEqual(ds.Items[i], back.Items[i]) {
			t.Fatalf("item %d differs:\n got %+v\nwant %+v", i, back.Items[i], ds.Items[i])
		}
	}
}

// TestColumnarMatchesJSONL writes the same dataset both ways and checks
// the decoded item streams are identical.
func TestColumnarMatchesJSONL(t *testing.T) {
	ds := sample()
	dir := t.TempDir()
	jp, cp := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "a.catc")
	if err := WriteAll(jp, ds); err != nil {
		t.Fatal(err)
	}
	if err := WriteAllFormat(cp, ds, FormatColumnar); err != nil {
		t.Fatal(err)
	}
	jd, err := ReadAll(jp)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := ReadAll(cp)
	if err != nil {
		t.Fatal(err)
	}
	if len(jd.Items) != len(cd.Items) {
		t.Fatalf("jsonl %d items vs columnar %d", len(jd.Items), len(cd.Items))
	}
	for i := range jd.Items {
		if !reflect.DeepEqual(jd.Items[i], cd.Items[i]) {
			t.Fatalf("item %d differs between formats", i)
		}
	}
}

// TestColumnarChunkBoundaries streams enough items to cross multiple
// chunk flushes and verifies order and comment attachment survive.
func TestColumnarChunkBoundaries(t *testing.T) {
	u := synth.Generate(synth.Config{
		Name: "chunks", Seed: 5, FraudEvidence: 40, Normal: 60, Shops: 4,
	})
	items := u.Dataset.Items

	var buf bytes.Buffer
	w := NewWriterFormat(&buf, FormatColumnar)
	// Force several flushes by shrinking nothing: write each item and
	// rely on the comment cap; with default sizes this stays one chunk,
	// so write the set three times to at least exercise sequential
	// chunks via finish-flush boundaries plus a re-read.
	for round := 0; round < 3; round++ {
		for i := range items {
			if err := w.Write(&items[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	n := 0
	for {
		item, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want := &items[n%len(items)]
		if item.ID != want.ID || len(item.Comments) != len(want.Comments) {
			t.Fatalf("item %d = %s (%d comments), want %s (%d)", n,
				item.ID, len(item.Comments), want.ID, len(want.Comments))
		}
		for j := range item.Comments {
			if item.Comments[j].ItemID != item.ID {
				t.Fatalf("comment %d of item %s carries ItemID %q", j, item.ID, item.Comments[j].ItemID)
			}
		}
		n++
	}
	if n != 3*len(items) {
		t.Fatalf("streamed %d items, want %d", n, 3*len(items))
	}
}

// TestColumnarManyChunks drives the writer past its chunk thresholds so
// the reader really does decode more than one chunk.
func TestColumnarManyChunks(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriterFormat(&buf, FormatColumnar)
	total := colChunkItems*2 + 7
	for i := 0; i < total; i++ {
		item := ecom.Item{ID: itemID(i), SalesVolume: i}
		if i%3 == 0 {
			item.Comments = []ecom.Comment{{ID: "c", ItemID: item.ID, Content: "fine product"}}
		}
		if err := w.Write(&item); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	for i := 0; i < total; i++ {
		item, err := r.Next()
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if item.ID != itemID(i) || item.SalesVolume != i {
			t.Fatalf("item %d = %+v", i, item)
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

func itemID(i int) string {
	return string(rune('a'+i%26)) + "-" + string(rune('0'+(i/26)%10))
}

// TestColumnarEmptyDataset: zero items still round-trip as a valid
// container.
func TestColumnarEmptyDataset(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriterFormat(&buf, FormatColumnar)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty dataset produced no container header")
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF from empty container, got %v", err)
	}
}

// TestColumnarCorruption: a flipped payload bit surfaces as an error,
// not a panic or silent misread.
func TestColumnarCorruption(t *testing.T) {
	ds := sample()
	var buf bytes.Buffer
	w := NewWriterFormat(&buf, FormatColumnar)
	for i := range ds.Items {
		if err := w.Write(&ds.Items[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)/2] ^= 0x20

	reads := map[string]func(*Reader) error{
		"Next":      func(r *Reader) error { _, err := r.Next(); return err },
		"NextTexts": func(r *Reader) error { _, _, err := r.NextTexts(nil); return err },
	}
	for name, next := range reads {
		r := NewReader(bytes.NewReader(b))
		var err error
		for i := 0; i <= len(ds.Items) && err == nil; i++ {
			err = next(r)
		}
		if errors.Is(err, io.EOF) {
			t.Fatalf("%s: corruption read through to clean EOF", name)
		}
		if err == nil {
			t.Fatalf("%s: corrupted stream fully decoded", name)
		}
	}
}

// TestColumnarRejectsSnapshotKind: a model snapshot container is not a
// dataset.
func TestColumnarRejectsSnapshotKind(t *testing.T) {
	// Hand-build a snapshot-kind header.
	b := []byte{'C', 'A', 'T', 'C', 1 /* version */, 1 /* KindSnapshot */}
	r := NewReader(bytes.NewReader(b))
	if _, err := r.Next(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("snapshot container accepted as dataset: %v", err)
	}
}

// TestSniffingReaderPicksJSONL: a Reader over JSONL bytes still decodes
// JSONL after the columnar format was added.
func TestSniffingReaderPicksJSONL(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte(`{"item_id":"x"}` + "\n")))
	item, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if item.ID != "x" {
		t.Fatalf("item = %+v", item)
	}
}
