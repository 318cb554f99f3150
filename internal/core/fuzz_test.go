package core

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/colfmt"
	"repro/internal/ecom"
	"repro/internal/features"
	"repro/internal/ml/gbt"
	"repro/internal/racetest"
	"repro/internal/sentiment"
)

// tinySnapshot is a complete model small enough to mutate fast: every
// block a columnar snapshot can hold (the drift sample included), a
// four-word dictionary and a one-split ensemble.
func tinySnapshot() *DetectorSnapshot {
	split := make([]int, features.NumFeatures)
	split[0] = 1
	row := make([]float64, features.NumFeatures)
	return &DetectorSnapshot{
		Version: snapshotVersion,
		Analyzer: &AnalyzerSnapshot{
			Vocabulary: []string{"好评", "很好", "差评", "物流"},
			Positive:   []string{"好评", "很好"},
			Negative:   []string{"差评"},
			Sentiment: &sentiment.Snapshot{
				LogPrior: [2]float64{-0.7, -0.7},
				LogLik: [2]sentiment.LogLik{
					{Words: []string{"差评", "物流"}, Vals: []float64{-1, -2}},
					{Words: []string{"好评", "很好", "物流"}, Vals: []float64{-1, -1.5, -2}},
				},
				LogOOV: [2]float64{-5, -5},
			},
		},
		Config: DetectorConfig{Threshold: 0.5},
		GBT: &gbt.Snapshot{
			BaseScore: 0.1, SplitCount: split, Names: features.Names,
			Trees: [][]gbt.NodeDTO{{
				{Feature: 0, Threshold: 0.5, Left: 1, Right: 2},
				{Leaf: true, Weight: -1, Left: -1, Right: -1},
				{Leaf: true, Weight: 1, Left: -1, Right: -1},
			}},
		},
		TrainingSample: [][]float64{row, row},
	}
}

// legacyColumnar is tinySnapshot in the layout of a file written while
// models still carried the word2vec embedding: meta flag bit 0 set and,
// before the gbt block, a w2v block — dim, word count, a string column
// into the shared arena, a counts column, then the vectors row by row.
// (That writer put the words in the arena before the gbt names; a load
// accepts any arena order.) flags edits the meta flags byte and w2v the
// block's payload.
func legacyColumnar(t testing.TB, flags func(byte) byte, w2v func([]byte) []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshotColumnar(&buf, tinySnapshot()); err != nil {
		t.Fatal(err)
	}
	r, err := colfmt.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w, err := colfmt.NewWriter(&out, colfmt.KindSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	var emb colfmt.Enc
	for {
		name, payload, err := r.Next()
		if err != nil {
			break
		}
		switch name {
		case "meta":
			payload = bytes.Clone(payload)
			payload[len(payload)-1] = flags(payload[len(payload)-1] | 1)
		case "arena":
			// The embedding's words go after the strings already there.
			var arena colfmt.Arena
			new(colfmt.Enc).StringCol(&arena, []string{string(payload)})
			emb.Varint(2)
			emb.Uvarint(2)
			emb.StringCol(&arena, []string{"好评", "差评"})
			emb.IntsCol([]int{3, 1})
			for _, v := range []float64{1, 0, 0, 1} {
				emb.F64(v)
			}
			payload = arena.Bytes()
		case "gbt":
			w.WriteBlock("w2v", w2v(emb.Bytes()))
		}
		w.WriteBlock(name, payload)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// legacyJSON is tinySnapshot's JSON with the analyzer's "embedding"
// key, which older writers filled, set to embedding.
func legacyJSON(t testing.TB, embedding string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, tinySnapshot()); err != nil {
		t.Fatal(err)
	}
	return bytes.Replace(buf.Bytes(), []byte(`"analyzer":{`), []byte(`"analyzer":{"embedding":`+embedding+`,`), 1)
}

// FuzzReadSnapshot feeds arbitrary bytes to the model loader as every
// load path does — ReadSnapshot, then DetectorFromSnapshot — and scores
// a fixed item with whatever it accepts. Nothing may panic; a rejection
// is a colfmt.Error or a core: error, never another package's bare
// one; and a load allocates within a fixed multiple of its input, so a
// count or row length the bytes cannot back is refused before it is
// allocated. Then the accepted model is saved again (resaveAll): none
// of that may fail either.
func FuzzReadSnapshot(f *testing.F) {
	for _, format := range []SnapshotFormat{FormatColumnar, FormatJSON} {
		var buf bytes.Buffer
		if err := WriteSnapshotFormat(&buf, tinySnapshot(), format); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()*2/3])
	}
	// A drift sample promising one 2^20-float row in six bytes.
	f.Add(reframeSnapshot(f, tinySnapshot(), func(name string, payload []byte) ([]byte, bool) {
		if name == "trainsample" {
			var e colfmt.Enc
			e.Uvarint(1)
			e.IntsCol([]int{1 << 20})
			payload = e.Bytes()
		}
		return payload, true
	}))
	// An older file's w2v block, which a load skips unread: as written,
	// and one float short of its promise in a file whose meta flags deny
	// it.
	f.Add(legacyColumnar(f, func(b byte) byte { return b }, func(p []byte) []byte { return p }))
	f.Add(legacyColumnar(f, func(b byte) byte { return b &^ 1 }, func(p []byte) []byte { return p[:len(p)-8] }))
	// An older JSON file's embedding, which a load ignores.
	f.Add(legacyJSON(f, `{"dim":2,"words":["好评","差评"],"counts":[3,1],"vectors":[[1,0],[0,1]]}`))
	// A NaN leaf weight, which a JSON re-save could not spell.
	nan := tinySnapshot()
	nan.GBT.Trees[0][1].Weight = math.NaN()
	f.Add(reframeSnapshot(f, nan, func(_ string, payload []byte) ([]byte, bool) { return payload, true }))
	f.Add([]byte(`{"version":1,"analyzer":{"vocabulary":[""],"sentiment":{}},"gbt":{"trees":[[{"leaf":true}]]}}`))
	f.Add([]byte("CATC\x01\x01\x05arena\x80\x80\x80\x80\x04\x00\x00\x00\x00")) // 1 GiB declared, nothing delivered

	item := ecom.Item{ID: "fuzz", SalesVolume: 100, Comments: []ecom.Comment{
		{Content: "好评很好，物流差评"}, {Content: "物流"}, {Content: ""},
	}}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, err := ReadSnapshot(bytes.NewReader(data))
		var det *Detector
		var a *Analyzer
		if err == nil {
			det, a, err = DetectorFromSnapshot(snap)
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			var ce *colfmt.Error
			if !errors.As(err, &ce) && !strings.HasPrefix(err.Error(), "core: ") {
				t.Fatalf("rejection is neither a colfmt.Error nor a core: error: %v", err)
			}
		} else if _, err := det.DetectItem(&item); err != nil {
			t.Fatalf("an accepted model cannot score: %v", err)
		}
		// What does not follow the input is fixed: the read buffer, the
		// room a frame gets before its bytes arrive (colfmt's payloadStep,
		// 4 MiB) and the extractor's tables. The rest — decoded columns,
		// the segmenter's trie, the extractor's word table — follows the
		// bytes that describe it: a valid load allocates ≈ 10 bytes per
		// input byte at full size, ≈ 170 at this fuzzer's seed sizes, where
		// the fixed part dominates. Race instrumentation allocates beside
		// the code it instruments, so the bound holds only without it.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(5<<20+200*len(data)); !racetest.Enabled && grew > limit {
			t.Fatalf("loading %d bytes allocated %d, limit %d", len(data), grew, limit)
		}
		if err == nil {
			resaveAll(t, snap, det, a)
		}
	})
}

// resaveAll saves an accepted model — the snapshot as read and the
// model's own snapshot, in both formats — and fails if any of it errors
// or panics: every model a load accepts can be saved. What the columnar
// re-save writes must load again.
func resaveAll(t *testing.T, snap *DetectorSnapshot, det *Detector, a *Analyzer) {
	t.Helper()
	resaved, err := det.Snapshot(snap.Analyzer.Vocabulary, a)
	if err != nil {
		t.Fatalf("an accepted model cannot snapshot: %v", err)
	}
	for _, s := range []*DetectorSnapshot{snap, resaved} {
		for _, format := range []SnapshotFormat{FormatColumnar, FormatJSON} {
			var buf bytes.Buffer
			if err := WriteSnapshotFormat(&buf, s, format); err != nil {
				t.Fatalf("an accepted model cannot be saved in format %d: %v", format, err)
			}
			if format != FormatColumnar {
				continue
			}
			back, err := ReadSnapshot(&buf)
			if err == nil {
				_, _, err = DetectorFromSnapshot(back)
			}
			if err != nil {
				t.Fatalf("the columnar re-save of an accepted model does not load: %v", err)
			}
		}
	}
}
