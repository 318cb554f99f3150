package core

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ecom"
	"repro/internal/synth"
	"repro/internal/textgen"
)

func TestDetectStreamMatchesBatch(t *testing.T) {
	d, _ := trainedDetector(t, DetectorConfig{})
	u := synth.Generate(synth.Config{
		Name: "stream", Seed: 101, FraudEvidence: 40, Normal: 110, Shops: 6,
	})
	path := filepath.Join(t.TempDir(), "items.jsonl")
	if err := dataset.WriteAll(path, &u.Dataset); err != nil {
		t.Fatal(err)
	}

	want, err := d.Detect(u.Dataset.Items, 1)
	if err != nil {
		t.Fatal(err)
	}

	r, err := dataset.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got []Detection
	stats, err := d.DetectStream(context.Background(), r, StreamOptions{BatchSize: 16}, func(item *ecom.Item, det Detection) error {
		if item.ID != det.ItemID {
			t.Fatalf("item/detection mismatch: %s vs %s", item.ID, det.ItemID)
		}
		got = append(got, det)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Items != len(u.Dataset.Items) {
		t.Fatalf("streamed %d items, want %d", stats.Items, len(u.Dataset.Items))
	}
	if len(got) != len(want) {
		t.Fatalf("got %d detections, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("detection %d: stream %+v vs batch %+v", i, got[i], want[i])
		}
	}
	wantReported := 0
	for _, det := range want {
		if det.IsFraud {
			wantReported++
		}
	}
	if stats.Reported != wantReported {
		t.Fatalf("stats.Reported = %d, want %d", stats.Reported, wantReported)
	}
}

func TestDetectStreamEmitError(t *testing.T) {
	d, train := trainedDetector(t, DetectorConfig{})
	path := filepath.Join(t.TempDir(), "items.jsonl")
	if err := dataset.WriteAll(path, &train.Dataset); err != nil {
		t.Fatal(err)
	}
	r, err := dataset.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sentinel := errors.New("downstream full")
	_, err = d.DetectStream(context.Background(), r, StreamOptions{BatchSize: 8}, func(*ecom.Item, Detection) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

func TestDetectStreamUntrained(t *testing.T) {
	texts, labels := synth.PolarCorpus(200, 102)
	bank := textgen.NewBank()
	a, err := OracleAnalyzer(bank.Vocabulary(), bank.PositiveForms(), bank.Negative, texts, labels)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDetector(a, DetectorConfig{})
	if _, err := d.DetectStream(context.Background(), nil, StreamOptions{}, nil); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("err = %v, want ErrNotTrained", err)
	}
}
