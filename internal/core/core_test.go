package core

import (
	"errors"
	"testing"

	"repro/internal/ecom"
	"repro/internal/synth"
	"repro/internal/textgen"
)

// trainedDetector builds an oracle-analyzer detector trained on a small
// synthetic D0-shaped set.
func trainedDetector(t *testing.T, cfg DetectorConfig) (*Detector, *synth.Universe) {
	t.Helper()
	bank := textgen.NewBank()
	texts, labels := synth.PolarCorpus(1200, 21)
	a, err := OracleAnalyzer(bank.Vocabulary(), bank.PositiveForms(), bank.Negative, texts, labels)
	if err != nil {
		t.Fatal(err)
	}
	train := synth.Generate(synth.Config{
		Name: "train", Seed: 22, FraudEvidence: 150, FraudManual: 30, Normal: 220, Shops: 10,
	})
	d := NewDetector(a, cfg)
	if err := d.Train(&train.Dataset, 0); err != nil {
		t.Fatal(err)
	}
	return d, train
}

func TestDetectorEndToEnd(t *testing.T) {
	d, _ := trainedDetector(t, DetectorConfig{})
	test := synth.Generate(synth.Config{
		Name: "test", Seed: 33, FraudEvidence: 60, Normal: 120, Shops: 8,
	})
	dets, err := d.Detect(test.Dataset.Items, 0)
	if err != nil {
		t.Fatal(err)
	}
	var tp, fp, fn, tn int
	for i, det := range dets {
		truth := test.Dataset.Items[i].Label.IsFraud()
		switch {
		case det.IsFraud && truth:
			tp++
		case det.IsFraud && !truth:
			fp++
		case !det.IsFraud && truth:
			fn++
		default:
			tn++
		}
	}
	prec := float64(tp) / float64(tp+fp)
	rec := float64(tp) / float64(tp+fn)
	if prec < 0.85 {
		t.Errorf("precision %.3f, want >= 0.85", prec)
	}
	if rec < 0.85 {
		t.Errorf("recall %.3f, want >= 0.85", rec)
	}
}

func TestDetectBeforeTrain(t *testing.T) {
	bank := textgen.NewBank()
	texts, labels := synth.PolarCorpus(200, 24)
	a, err := OracleAnalyzer(bank.Vocabulary(), bank.PositiveForms(), bank.Negative, texts, labels)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDetector(a, DetectorConfig{})
	if _, err := d.Detect(nil, 0); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("Detect err = %v, want ErrNotTrained", err)
	}
	if _, err := d.DetectItem(&ecom.Item{}); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("DetectItem err = %v, want ErrNotTrained", err)
	}
}

func TestRuleFilterSalesVolume(t *testing.T) {
	d, _ := trainedDetector(t, DetectorConfig{MinSalesVolume: 5})
	item := &ecom.Item{
		ID: "low", SalesVolume: 2,
		Comments: []ecom.Comment{{Content: "很好满意推荐"}},
	}
	if d.PassesFilter(item) {
		t.Error("item with sales volume 2 passed the filter")
	}
	det, err := d.DetectItem(item)
	if err != nil {
		t.Fatal(err)
	}
	if !det.Filtered || det.IsFraud {
		t.Errorf("detection = %+v, want filtered non-fraud", det)
	}
}

func TestRuleFilterPositiveSignal(t *testing.T) {
	d, _ := trainedDetector(t, DetectorConfig{})
	neutral := &ecom.Item{
		ID: "neutral", SalesVolume: 50,
		Comments: []ecom.Comment{{Content: "质量一般，物流太差。"}},
	}
	if d.PassesFilter(neutral) {
		t.Error("item with no positive words passed the filter")
	}
	positive := &ecom.Item{
		ID: "pos", SalesVolume: 50,
		Comments: []ecom.Comment{{Content: "很好"}},
	}
	if !d.PassesFilter(positive) {
		t.Error("item with positive word blocked by filter")
	}
}

func TestRuleFilterDisabled(t *testing.T) {
	d, _ := trainedDetector(t, DetectorConfig{DisableRuleFilter: true})
	item := &ecom.Item{ID: "low", SalesVolume: 0}
	if !d.PassesFilter(item) {
		t.Error("disabled filter still filtering")
	}
}

func TestTrainAnalyzerEndToEnd(t *testing.T) {
	bank := textgen.NewBank()
	corpus := synth.TrainingCorpus(3000, 25)
	texts, labels := synth.PolarCorpus(800, 26)
	a, err := TrainAnalyzer(corpus, texts, labels, bank.Vocabulary(), AnalyzerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Positive.Len() == 0 || a.Negative.Len() == 0 {
		t.Fatalf("lexicons empty: pos=%d neg=%d", a.Positive.Len(), a.Negative.Len())
	}
	// The expanded positive set must mostly consist of ground-truth
	// positive words.
	var hits int
	for _, w := range a.Positive.Words() {
		if bank.IsPositive(w) {
			hits++
		}
	}
	purity := float64(hits) / float64(a.Positive.Len())
	if purity < 0.7 {
		t.Errorf("positive lexicon purity %.2f (%d/%d)", purity, hits, a.Positive.Len())
	}
	// No word may sit in both lexicons after disambiguation.
	for _, w := range a.Positive.Words() {
		if a.Negative.Contains(w) {
			t.Errorf("word %q in both lexicons", w)
		}
	}
}

func TestTrainAnalyzerEmptyCorpus(t *testing.T) {
	bank := textgen.NewBank()
	texts, labels := synth.PolarCorpus(100, 27)
	if _, err := TrainAnalyzer(nil, texts, labels, bank.Vocabulary(), AnalyzerConfig{}); err == nil {
		t.Fatal("empty corpus should error")
	}
}

func TestDetectParallelConsistency(t *testing.T) {
	d, train := trainedDetector(t, DetectorConfig{})
	seq, err := d.Detect(train.Dataset.Items[:50], 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := d.Detect(train.Dataset.Items[:50], 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("detection %d differs between 1 and 8 workers", i)
		}
	}
}

func TestBuildMLDatasetLabels(t *testing.T) {
	d, train := trainedDetector(t, DetectorConfig{})
	mlds := d.BuildMLDataset(train.Dataset.Items, nil, 0)
	if mlds.Len() != len(train.Dataset.Items) {
		t.Fatal("row count mismatch")
	}
	for i := range train.Dataset.Items {
		want := 0
		if train.Dataset.Items[i].Label.IsFraud() {
			want = 1
		}
		if mlds.Y[i] != want {
			t.Fatalf("label mismatch at %d", i)
		}
	}
	if len(mlds.FeatureNames) != 11 {
		t.Fatalf("feature names = %d, want 11", len(mlds.FeatureNames))
	}
}
