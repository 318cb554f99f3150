package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ecom"
	"repro/internal/synth"
)

// referenceDetect reproduces the pre-fusion Detect semantics — a full
// ExtractDataset over every item followed by an independent PassesFilter
// scan — as the equivalence oracle for the fused pipeline.
func referenceDetect(d *Detector, items []ecom.Item) []Detection {
	X := d.extractor.ExtractDataset(items, nil, 1)
	out := make([]Detection, len(items))
	for i := range items {
		out[i] = Detection{ItemID: items[i].ID}
		if !d.PassesFilter(&items[i]) {
			out[i].Filtered = true
			continue
		}
		out[i].Score = d.clf.PredictProba(X[i])
		out[i].IsFraud = out[i].Score >= d.cfg.Threshold
	}
	return out
}

// fusedTestItems is a workload exercising every filter branch: items
// below the sales cutoff, items with no positive signal, zero-comment
// items, and ordinary scorable traffic.
func fusedTestItems(t *testing.T) []ecom.Item {
	t.Helper()
	u := synth.Generate(synth.Config{
		Name: "fused", Seed: 71, FraudEvidence: 40, Normal: 80, Shops: 6,
	})
	items := u.Dataset.Items
	for i := range items {
		if i%3 == 0 {
			items[i].SalesVolume = 1 // below the default cutoff of 5
		}
	}
	items = append(items,
		ecom.Item{ID: "empty", SalesVolume: 50},
		ecom.Item{ID: "no-signal", SalesVolume: 50,
			Comments: []ecom.Comment{{Content: "质量一般，物流太差。"}}},
		ecom.Item{ID: "empty-comment", SalesVolume: 50,
			Comments: []ecom.Comment{{Content: ""}}},
	)
	return items
}

// TestFusedDetectMatchesReference: the fused scoreBatch must produce
// exactly the detections of the pre-refactor two-pass pipeline — same
// filter decisions, bit-identical scores — with and without the rule
// filter (the ablation mode).
func TestFusedDetectMatchesReference(t *testing.T) {
	for _, cfg := range []DetectorConfig{
		{},
		{DisableRuleFilter: true},
		{MinSalesVolume: 10, Threshold: 0.8},
	} {
		d, _ := trainedDetector(t, cfg)
		items := fusedTestItems(t)
		want := referenceDetect(d, items)
		got, err := d.Detect(items, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cfg %+v item %d: fused %+v != reference %+v", cfg, i, got[i], want[i])
			}
		}
		// DetectItem must agree with the batch path.
		for i := range items {
			det, err := d.DetectItem(&items[i])
			if err != nil {
				t.Fatal(err)
			}
			if det != want[i] {
				t.Fatalf("cfg %+v DetectItem(%d) = %+v, want %+v", cfg, i, det, want[i])
			}
		}
	}
}

// TestDetectWithFeaturesMatrix: rows must be nil exactly for items the
// sales cutoff dropped, and equal to the extractor's vector elsewhere.
func TestDetectWithFeaturesMatrix(t *testing.T) {
	d, _ := trainedDetector(t, DetectorConfig{})
	items := fusedTestItems(t)
	dets, X, err := d.DetectWithFeatures(context.Background(), items, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(X) != len(items) || len(dets) != len(items) {
		t.Fatalf("shapes: %d dets, %d rows, %d items", len(dets), len(X), len(items))
	}
	for i := range items {
		salesCut := items[i].SalesVolume < 5
		if salesCut != (X[i] == nil) {
			t.Fatalf("item %d (sales %d): row nil = %v", i, items[i].SalesVolume, X[i] == nil)
		}
		if X[i] == nil {
			continue
		}
		want := d.extractor.Vector(&items[i])
		for j := range want {
			if X[i][j] != want[j] {
				t.Fatalf("item %d feature %d: %v != %v", i, j, X[i][j], want[j])
			}
		}
	}
}

// TestDetectSegmentsOncePerComment: the acceptance guarantee — across
// Detect, DetectItem and DetectStream, every comment of every item that
// reaches analysis is segmented exactly once, and items below the sales
// cutoff are never segmented at all.
func TestDetectSegmentsOncePerComment(t *testing.T) {
	d, _ := trainedDetector(t, DetectorConfig{})
	seg := d.extractor.Segmenter()
	items := fusedTestItems(t)
	var analyzed int64
	for i := range items {
		if items[i].SalesVolume >= 5 {
			analyzed += int64(len(items[i].Comments))
		}
	}

	before := seg.Segmentations()
	if _, err := d.Detect(items, 4); err != nil {
		t.Fatal(err)
	}
	if got := seg.Segmentations() - before; got != analyzed {
		t.Fatalf("Detect: %d segmentation passes, want %d", got, analyzed)
	}

	before = seg.Segmentations()
	for i := range items {
		if _, err := d.DetectItem(&items[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := seg.Segmentations() - before; got != analyzed {
		t.Fatalf("DetectItem: %d segmentation passes, want %d", got, analyzed)
	}

	var buf bytes.Buffer
	w := dataset.NewWriter(&buf)
	for i := range items {
		if err := w.Write(&items[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before = seg.Segmentations()
	_, err := d.DetectStream(context.Background(), dataset.NewReader(&buf),
		StreamOptions{BatchSize: 16, Workers: 4}, func(*ecom.Item, Detection) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got := seg.Segmentations() - before; got != analyzed {
		t.Fatalf("DetectStream: %d segmentation passes, want %d", got, analyzed)
	}
}

// TestDetectContextCanceled: a pre-canceled context aborts batch
// scoring with the context's error.
func TestDetectContextCanceled(t *testing.T) {
	d, train := trainedDetector(t, DetectorConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.DetectContext(ctx, train.Dataset.Items, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := d.DetectContext(ctx, train.Dataset.Items, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("serial err = %v, want context.Canceled", err)
	}
}

// TestDetectStreamContextCanceled: cancellation aborts a stream run.
func TestDetectStreamContextCanceled(t *testing.T) {
	d, train := trainedDetector(t, DetectorConfig{})
	var buf bytes.Buffer
	w := dataset.NewWriter(&buf)
	for i := range train.Dataset.Items {
		if err := w.Write(&train.Dataset.Items[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := d.DetectStream(ctx, dataset.NewReader(&buf), StreamOptions{BatchSize: 8},
		func(*ecom.Item, Detection) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDetectStreamWorkerCount: the configured worker count must not
// change results (and must be honored rather than GOMAXPROCS).
func TestDetectStreamWorkerCount(t *testing.T) {
	d, _ := trainedDetector(t, DetectorConfig{})
	items := fusedTestItems(t)
	encode := func() *dataset.Reader {
		var buf bytes.Buffer
		w := dataset.NewWriter(&buf)
		for i := range items {
			if err := w.Write(&items[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return dataset.NewReader(&buf)
	}
	collect := func(workers int) []Detection {
		var out []Detection
		_, err := d.DetectStream(context.Background(), encode(),
			StreamOptions{BatchSize: 8, Workers: workers},
			func(_ *ecom.Item, det Detection) error { out = append(out, det); return nil })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	one, eight := collect(1), collect(8)
	if len(one) != len(items) || len(eight) != len(items) {
		t.Fatalf("lengths: %d, %d, want %d", len(one), len(eight), len(items))
	}
	for i := range one {
		if one[i] != eight[i] {
			t.Fatalf("detection %d differs between 1 and 8 workers", i)
		}
	}
}

// TestDetectItemWithFeaturesVector: the vector accompanying a detection
// matches a direct extraction, and is nil only below the sales cutoff.
func TestDetectItemWithFeaturesVector(t *testing.T) {
	d, _ := trainedDetector(t, DetectorConfig{})
	scored := ecom.Item{ID: "s", SalesVolume: 50,
		Comments: []ecom.Comment{{Content: "很好，满意！"}}}
	det, v, err := d.DetectItemWithFeatures(&scored)
	if err != nil {
		t.Fatal(err)
	}
	if det.Filtered || v == nil {
		t.Fatalf("scored item: det %+v, vector nil=%v", det, v == nil)
	}
	want := d.extractor.Vector(&scored)
	for j := range want {
		if v[j] != want[j] {
			t.Fatalf("feature %d: %v != %v", j, v[j], want[j])
		}
	}
	cut := ecom.Item{ID: "c", SalesVolume: 1,
		Comments: []ecom.Comment{{Content: "很好"}}}
	det, v, err = d.DetectItemWithFeatures(&cut)
	if err != nil {
		t.Fatal(err)
	}
	if !det.Filtered || v != nil {
		t.Fatalf("sales-cut item: det %+v, vector nil=%v", det, v == nil)
	}
}
