package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/synth"
	"repro/internal/textgen"
)

// writeFixture saves a small trained model and a detection set under
// dir and returns their paths and the number of items.
func writeFixture(t *testing.T, dir string) (model, detect string, items int) {
	t.Helper()
	bank := textgen.NewBank()
	texts, labels := synth.PolarCorpus(400, 6)
	a, err := core.OracleAnalyzer(bank.Vocabulary(), bank.PositiveForms(), bank.Negative, texts, labels)
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewDetector(a, core.DetectorConfig{})
	train := synth.Generate(synth.Config{Name: "train", Seed: 30, FraudEvidence: 40, Normal: 60, Shops: 4})
	if err := det.Train(&train.Dataset, 0); err != nil {
		t.Fatal(err)
	}
	snap, err := det.Snapshot(bank.Vocabulary(), a)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.WriteSnapshotColumnar(&buf, snap); err != nil {
		t.Fatal(err)
	}
	model = filepath.Join(dir, "model.catc")
	if err := os.WriteFile(model, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}

	score := synth.Generate(synth.Config{Name: "score", Seed: 31, FraudEvidence: 5, Normal: 15, Shops: 2})
	detect = filepath.Join(dir, "items.jsonl")
	w, err := dataset.Create(detect)
	if err != nil {
		t.Fatal(err)
	}
	for i := range score.Dataset.Items {
		if err := w.Write(&score.Dataset.Items[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return model, detect, len(score.Dataset.Items)
}

// TestRunReportsTruncatedOutput: the TSV here fits inside the output
// buffer, so the only write to the device happens at the final flush.
// A device that refuses it must fail the run rather than leave a
// truncated file behind an exit status of 0.
func TestRunReportsTruncatedOutput(t *testing.T) {
	dir := t.TempDir()
	model, detect, items := writeFixture(t, dir)

	out := filepath.Join(dir, "detections.tsv")
	if err := run("", detect, 0.5, 0, out, "", "json", model); err != nil {
		t.Fatalf("run to a regular file: %v", err)
	}
	tsv, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bytes.Count(tsv, []byte("\n")), items+1; got != want {
		t.Fatalf("TSV has %d lines, want header + %d rows", got, items)
	}

	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	if err := run("", detect, 0.5, 0, "/dev/full", "", "json", model); err == nil {
		t.Fatal("run to /dev/full returned nil: a failed flush was reported as success")
	}
}

// TestIgnoredFlagIsAUsageError: `cats -load-model m -threshold 0.9` used
// to score at the snapshot's threshold without a word. A flag set beside
// the mode that does not read it is refused by name; what bench/ and the
// smoke script run is not.
func TestIgnoredFlagIsAUsageError(t *testing.T) {
	for _, c := range []struct {
		set  string // the flags set, space-separated
		want string // the flag the error names, "" for none
	}{
		{"load-model detect threshold", "-threshold"},
		{"load-model detect corpus", "-corpus"},
		{"load-model detect model-format", "-model-format"},
		{"train detect model-format", "-model-format"},
		{"load-model detect out", ""},
		{"load-model detect save-model model-format out", ""},
		{"train detect threshold corpus save-model model-format", ""},
	} {
		set := map[string]bool{}
		for _, name := range strings.Fields(c.set) {
			set[name] = true
		}
		err := ignoredFlag(set)
		if (err == nil) != (c.want == "") || (err != nil && !strings.HasPrefix(err.Error(), c.want+" ")) {
			t.Errorf("flags %q: error %v, want one naming %q", c.set, err, c.want)
		}
	}
}

// TestSummaryNamesJSONLDecodePaths: the stage line keeps its fields
// where they were and, after a JSONL input only, ends with the lines
// each decoder read.
func TestSummaryNamesJSONLDecodePaths(t *testing.T) {
	stats := cats.StreamStats{Items: 9433, Reported: 12, Batches: 10, ReadSeconds: 0.0774, ScoreSeconds: 0.057, EmitSeconds: 0.001}
	const columnar = "cats: scored 9433 items, reported 12 fraud (10 batches: read 0.077s score 0.057s emit 0.001s wall 0.082s)"
	if got := summary(stats, 82*time.Millisecond); got != columnar {
		t.Errorf("columnar input:\n got  %s\n want %s", got, columnar)
	}
	stats.JSONLFast, stats.JSONLStdlib = 9430, 3
	want := strings.TrimSuffix(columnar, ")") + "; jsonl lines fast 9430 stdlib 3)"
	if got := summary(stats, 82*time.Millisecond); got != want {
		t.Errorf("JSONL input:\n got  %s\n want %s", got, want)
	}
}

// TestAppendRowMatchesFprintf: the TSV row written into the reused
// buffer is, byte for byte, the row the fmt verbs it replaced print —
// at the ends of the score range, at a score that rounds up into the
// next decimal place, and for a filtered item.
func TestAppendRowMatchesFprintf(t *testing.T) {
	dets := []cats.Detection{
		{ItemID: "zero", Score: 0},
		{ItemID: "one", Score: 1, IsFraud: true},
		{ItemID: "rounds-up", Score: 0.99995, IsFraud: true},
		{ItemID: "rounds-down", Score: 0.99994999, IsFraud: true},
		{ItemID: "half", Score: 0.5, IsFraud: true},
		{ItemID: "tiny", Score: 4.9e-5},
		{ItemID: "smallest", Score: math.SmallestNonzeroFloat64},
		{ItemID: "third", Score: 1.0 / 3},
		{ItemID: "filtered", Filtered: true},
		{ItemID: "商品-7", Score: 0.12345},
		{ItemID: ""},
	}
	var row []byte
	for _, d := range dets {
		want := fmt.Sprintf("%s\t%.4f\t%v\t%v\n", d.ItemID, d.Score, d.IsFraud, d.Filtered)
		row = appendRow(row[:0], &d)
		if string(row) != want {
			t.Errorf("appendRow(%+v) = %q, Fprintf wrote %q", d, row, want)
		}
	}
}
