package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/synth"
	"repro/internal/textgen"
)

func TestDetectorSnapshotRoundTrip(t *testing.T) {
	bank := textgen.NewBank()
	texts, labels := synth.PolarCorpus(800, 71)
	a, err := OracleAnalyzer(bank.Vocabulary(), bank.PositiveForms(), bank.Negative, texts, labels)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDetector(a, DetectorConfig{Threshold: 0.7})
	train := synth.Generate(synth.Config{
		Name: "t", Seed: 72, FraudEvidence: 80, Normal: 120, Shops: 6,
	})
	if err := d.Train(&train.Dataset, 0); err != nil {
		t.Fatal(err)
	}

	snap, err := d.Snapshot(bank.Vocabulary(), a)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d2, a2, err := DetectorFromSnapshot(back)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Positive.Len() != a.Positive.Len() || a2.Negative.Len() != a.Negative.Len() {
		t.Fatal("lexicons changed across round trip")
	}

	// The restored detector must reproduce detections exactly.
	test := synth.Generate(synth.Config{
		Name: "u", Seed: 73, FraudEvidence: 20, Normal: 40, Shops: 4,
	})
	before, err := d.Detect(test.Dataset.Items, 1)
	if err != nil {
		t.Fatal(err)
	}
	after, err := d2.Detect(test.Dataset.Items, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("detection %d differs after round trip: %+v vs %+v", i, before[i], after[i])
		}
	}
}

func TestSnapshotRequiresTraining(t *testing.T) {
	bank := textgen.NewBank()
	texts, labels := synth.PolarCorpus(200, 74)
	a, err := OracleAnalyzer(bank.Vocabulary(), bank.PositiveForms(), bank.Negative, texts, labels)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDetector(a, DetectorConfig{})
	if _, err := d.Snapshot(bank.Vocabulary(), a); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("err = %v, want ErrNotTrained", err)
	}
}

func TestDetectorFromSnapshotValidation(t *testing.T) {
	if _, _, err := DetectorFromSnapshot(nil); err == nil {
		t.Error("nil snapshot should error")
	}
	if _, _, err := DetectorFromSnapshot(&DetectorSnapshot{Version: 99}); err == nil {
		t.Error("bad version should error")
	}
	// A model over a different feature count than the extractor's
	// vectors would index past them at detection time.
	snap, _ := trainedSnapshot(t, 78)
	snap.GBT.SplitCount = append(snap.GBT.SplitCount, 0)
	if _, _, err := DetectorFromSnapshot(snap); err == nil || !strings.Contains(err.Error(), "12 features") {
		t.Errorf("12-feature model: err = %v, want a feature-count error", err)
	}
	// So would a drift baseline row of another width, at /v1/drift.
	snap, _ = trainedSnapshot(t, 79)
	snap.TrainingSample = append(snap.TrainingSample, []float64{1, 2, 3})
	if _, _, err := DetectorFromSnapshot(snap); err == nil || !strings.Contains(err.Error(), "has 3 features") {
		t.Errorf("3-wide training sample row: err = %v, want a feature-count error", err)
	}
}

func TestReadSnapshotBadJSON(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewBufferString("{broken")); err == nil {
		t.Error("corrupt JSON should error")
	}
}

func TestSnapshotCarriesDriftBaseline(t *testing.T) {
	bank := textgen.NewBank()
	texts, labels := synth.PolarCorpus(600, 77)
	a, err := OracleAnalyzer(bank.Vocabulary(), bank.PositiveForms(), bank.Negative, texts, labels)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDetector(a, DetectorConfig{})
	train := synth.Generate(synth.Config{
		Name: "base", Seed: 78, FraudEvidence: 40, Normal: 60, Shops: 4,
	})
	if err := d.Train(&train.Dataset, 0); err != nil {
		t.Fatal(err)
	}
	if len(d.TrainingSample()) != 100 {
		t.Fatalf("baseline size = %d, want 100 (all rows at this scale)", len(d.TrainingSample()))
	}
	snap, err := d.Snapshot(bank.Vocabulary(), a)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := DetectorFromSnapshot(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.TrainingSample()) != len(d.TrainingSample()) {
		t.Fatalf("restored baseline %d rows, want %d", len(d2.TrainingSample()), len(d.TrainingSample()))
	}
	for i := range d.TrainingSample() {
		for j := range d.TrainingSample()[i] {
			if d.TrainingSample()[i][j] != d2.TrainingSample()[i][j] {
				t.Fatal("baseline changed across round trip")
			}
		}
	}
}
