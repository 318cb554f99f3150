package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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

// TestLoadSaveKeepsTheModelsVocabulary: `cats -load-model X -save-model
// Y` writes X's segmenter dictionary, not the word bank's. X here is a
// snapshot edited to one extra word, which a comment of the detection
// set holds, so a model re-saved with the bank's dictionary would
// segment that comment, and score its item, differently.
func TestLoadSaveKeepsTheModelsVocabulary(t *testing.T) {
	dir := t.TempDir()
	model, detect, _ := writeFixture(t, dir)
	snap := readSnapshot(t, model)
	const extra = "好评如潮"
	snap.Analyzer.Vocabulary = append(snap.Analyzer.Vocabulary, extra)
	var buf bytes.Buffer
	if err := core.WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	edited := filepath.Join(dir, "edited.json")
	if err := os.WriteFile(edited, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}

	set, err := dataset.ReadAll(detect)
	if err != nil {
		t.Fatal(err)
	}
	// The first item with comments: under the edited dictionary the extra
	// word is one token, under the bank's it holds the positive 好评.
	item := &set.Items[slices.IndexFunc(set.Items, func(it cats.Item) bool { return len(it.Comments) > 0 })]
	item.SalesVolume = 1000 // over the rule filter's cutoff
	for i := range item.Comments {
		item.Comments[i].Content += "，" + extra
	}
	w, err := dataset.Create(detect)
	if err != nil {
		t.Fatal(err)
	}
	for i := range set.Items {
		if err := w.Write(&set.Items[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	resaved := filepath.Join(dir, "resaved.json")
	loadedTSV, resavedTSV := filepath.Join(dir, "loaded.tsv"), filepath.Join(dir, "resaved.tsv")
	if err := run("", detect, 0.5, 0, loadedTSV, resaved, "json", edited); err != nil {
		t.Fatal(err)
	}
	if err := run("", detect, 0.5, 0, resavedTSV, "", "json", resaved); err != nil {
		t.Fatal(err)
	}
	if got, want := readSnapshot(t, resaved).Analyzer.Vocabulary, snap.Analyzer.Vocabulary; !slices.Equal(got, want) {
		t.Errorf("re-saved vocabulary has %d words, the loaded model %d", len(got), len(want))
	}
	a, err := os.ReadFile(loadedTSV)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(resavedTSV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("the re-saved model scores differently:\n--- loaded ---\n%s--- re-saved ---\n%s", a, b)
	}
}

func readSnapshot(t *testing.T, path string) *core.DetectorSnapshot {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := core.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	return snap
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

// TestThresholdOutsideUnitIsRefused: a model trained at a threshold
// outside [0, 1] would save but never load again, so the run refuses it
// before reading anything.
func TestThresholdOutsideUnitIsRefused(t *testing.T) {
	for _, thr := range []float64{1.5, -0.1, math.NaN()} {
		err := run("train.jsonl", "missing.jsonl", thr, 10, "-", "", "json", "")
		if err == nil || !strings.Contains(err.Error(), "-threshold") {
			t.Errorf("threshold %v: err = %v, want it refused by name", thr, err)
		}
	}
}

// TestMissingModelErrorLine: a -load-model that does not exist fails
// the run with one "cats: " prefix on its line, not the library's
// prefix behind main's.
func TestMissingModelErrorLine(t *testing.T) {
	dir := t.TempDir()
	detect := filepath.Join(dir, "items.jsonl")
	if err := os.WriteFile(detect, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "nonexist.catc")
	err := run("", detect, 0.5, 0, "-", "", "json", missing)
	if err == nil {
		t.Fatal("a missing model loaded")
	}
	if got, want := errorLine(err), "cats: load: open "+missing+": no such file or directory"; got != want {
		t.Errorf("\n got  %s\n want %s", got, want)
	}
	if got, want := errorLine(fmt.Errorf("-detect is required")), "cats: -detect is required"; got != want {
		t.Errorf("\n got  %s\n want %s", got, want)
	}
}

// TestSummaryLine: the stage line keeps its fields where they were.
func TestSummaryLine(t *testing.T) {
	stats := cats.StreamStats{Items: 9433, Reported: 12, Batches: 10, ReadSeconds: 0.0774, ScoreSeconds: 0.057, EmitSeconds: 0.001}
	const want = "cats: scored 9433 items, reported 12 fraud (10 batches: load 0.002s read 0.077s score 0.057s emit 0.001s wall 0.082s)"
	if got := summary(stats, 2100*time.Microsecond, 82*time.Millisecond); got != want {
		t.Errorf("\n got  %s\n want %s", got, want)
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

// TestAppendRowQuotesIDsThatBreakTheRow: an id holding a tab, CR or LF
// would give a row of more than four fields, so it is written
// strconv.Quote'd — and so is one beginning with a quote, so that a
// leading quote always means a quoted id. Every other id, a quote inside
// it included, is written as it is.
func TestAppendRowQuotesIDsThatBreakTheRow(t *testing.T) {
	for _, c := range []struct{ id, field string }{
		{"a\tb", `"a\tb"`},
		{"a\nb", `"a\nb"`},
		{"a\rb", `"a\rb"`},
		{"\t", `"\t"`},
		{`"quoted"`, `"\"quoted\""`},
		{`"`, `"\""`},
		{`mid"quote`, `mid"quote`},
		{"商品 7", "商品 7"},
		{"", ""},
	} {
		row := string(appendRow(nil, &cats.Detection{ItemID: c.id, Score: 0.5, IsFraud: true}))
		fields := strings.Split(strings.TrimSuffix(row, "\n"), "\t")
		if len(fields) != 4 || fields[0] != c.field || strings.Count(row, "\n") != 1 {
			t.Errorf("id %q: row %q, want four fields, the first %q", c.id, row, c.field)
			continue
		}
		if id, err := strconv.Unquote(fields[0]); strings.HasPrefix(fields[0], `"`) && (err != nil || id != c.id) {
			t.Errorf("id %q: field %s unquotes to %q (%v)", c.id, fields[0], id, err)
		}
	}
}
