package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/colfmt"
	"repro/internal/features"
	"repro/internal/synth"
	"repro/internal/textgen"
)

// trainedSnapshot builds a small trained detector and returns its
// snapshot alongside the live detector for behavioral comparison.
func trainedSnapshot(t *testing.T, seed int64) (*DetectorSnapshot, *Detector) {
	t.Helper()
	bank := textgen.NewBank()
	texts, labels := synth.PolarCorpus(600, seed)
	a, err := OracleAnalyzer(bank.Vocabulary(), bank.PositiveForms(), bank.Negative, texts, labels)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDetector(a, DetectorConfig{Threshold: 0.6})
	train := synth.Generate(synth.Config{
		Name: "t", Seed: seed, FraudEvidence: 60, Normal: 90, Shops: 5,
	})
	if err := d.Train(&train.Dataset, 0); err != nil {
		t.Fatal(err)
	}
	snap, err := d.Snapshot(bank.Vocabulary(), a)
	if err != nil {
		t.Fatal(err)
	}
	return snap, d
}

// TestColumnarSnapshotRoundTrip: columnar write → sniffing read →
// detector that reproduces the original's detections exactly.
func TestColumnarSnapshotRoundTrip(t *testing.T) {
	snap, d := trainedSnapshot(t, 301)

	var buf bytes.Buffer
	if err := WriteSnapshotFormat(&buf, snap, FormatColumnar); err != nil {
		t.Fatal(err)
	}
	if !colfmt.Sniff(buf.Bytes()) {
		t.Fatal("columnar snapshot does not sniff")
	}
	back, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d2, a2, err := DetectorFromSnapshot(back)
	if err != nil {
		t.Fatal(err)
	}
	if a2 == nil {
		t.Fatal("nil analyzer restored")
	}

	test := synth.Generate(synth.Config{
		Name: "u", Seed: 302, FraudEvidence: 15, Normal: 30, Shops: 3,
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
			t.Fatalf("detection %d differs after columnar round trip: %+v vs %+v", i, before[i], after[i])
		}
	}
}

// TestColumnarSnapshotMatchesJSON: both codecs restore snapshots whose
// detectors score identically (the fields may reorder; behavior may
// not).
func TestColumnarSnapshotMatchesJSON(t *testing.T) {
	snap, _ := trainedSnapshot(t, 303)

	var jb, cb bytes.Buffer
	if err := WriteSnapshotFormat(&jb, snap, FormatJSON); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotFormat(&cb, snap, FormatColumnar); err != nil {
		t.Fatal(err)
	}
	js, err := ReadSnapshot(&jb)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := ReadSnapshot(&cb)
	if err != nil {
		t.Fatal(err)
	}
	jd, _, err := DetectorFromSnapshot(js)
	if err != nil {
		t.Fatal(err)
	}
	cd, _, err := DetectorFromSnapshot(cs)
	if err != nil {
		t.Fatal(err)
	}
	test := synth.Generate(synth.Config{
		Name: "v", Seed: 304, FraudEvidence: 15, Normal: 25, Shops: 3,
	})
	a, err := jd.Detect(test.Dataset.Items, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cd.Detect(test.Dataset.Items, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("detection %d differs between JSON and columnar loads: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestColumnarSnapshotByteStable: encoding the same snapshot twice
// yields identical bytes (map iteration must not leak into the output —
// content-hash model versions depend on it).
func TestColumnarSnapshotByteStable(t *testing.T) {
	snap, _ := trainedSnapshot(t, 305)
	var a, b bytes.Buffer
	if err := WriteSnapshotColumnar(&a, snap); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotColumnar(&b, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("columnar snapshot encoding is not byte-stable")
	}
}

// TestColumnarSnapshotCorruption: flipped bits anywhere in the body are
// caught and reported with block context.
func TestColumnarSnapshotCorruption(t *testing.T) {
	snap, _ := trainedSnapshot(t, 306)
	var buf bytes.Buffer
	if err := WriteSnapshotColumnar(&buf, snap); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for _, pos := range []int{7, len(orig) / 3, len(orig) / 2, len(orig) - 2} {
		b := append([]byte(nil), orig...)
		b[pos] ^= 0x04
		_, err := ReadSnapshot(bytes.NewReader(b))
		if err == nil {
			t.Fatalf("bit flip at %d decoded cleanly", pos)
		}
	}
}

// TestColumnarSnapshotTruncation: every truncation fails with a
// diagnosable error carrying version and offset.
func TestColumnarSnapshotTruncation(t *testing.T) {
	snap, _ := trainedSnapshot(t, 307)
	var buf bytes.Buffer
	if err := WriteSnapshotColumnar(&buf, snap); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, frac := range []int{1, 2, 4, 10} {
		cut := len(full) / frac
		if cut == len(full) {
			cut--
		}
		_, err := ReadSnapshot(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
		var ce *colfmt.Error
		if errors.As(err, &ce) {
			if ce.Version != colfmt.FormatVersion {
				t.Fatalf("error version = %d", ce.Version)
			}
		} else if !strings.Contains(err.Error(), "core:") {
			t.Fatalf("undiagnosable truncation error: %v", err)
		}
	}
}

// reframeSnapshot re-encodes snap's columnar container block by block:
// edit returns the payload to write for a block, or false to drop it.
func reframeSnapshot(t testing.TB, snap *DetectorSnapshot, edit func(name string, payload []byte) ([]byte, bool)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshotColumnar(&buf, snap); err != nil {
		t.Fatal(err)
	}
	r, err := colfmt.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w, err := colfmt.NewWriter(&out, colfmt.KindSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	for {
		name, payload, err := r.Next()
		if err != nil {
			break
		}
		if payload, keep := edit(name, payload); keep {
			if err := w.WriteBlock(name, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out.Bytes()
}

// TestColumnarSnapshotMissingBlock: dropping a required block is
// reported by name.
func TestColumnarSnapshotMissingBlock(t *testing.T) {
	snap, _ := trainedSnapshot(t, 308)
	raw := reframeSnapshot(t, snap, func(name string, payload []byte) ([]byte, bool) {
		return payload, name != "gbt"
	})
	_, err := ReadSnapshot(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "gbt") {
		t.Fatalf("missing gbt block not named: %v", err)
	}
}

// TestColumnarSnapshotForeignModelKind: the meta block keeps its
// classifier-kind slot for compatibility, but a snapshot can only hold
// the boosted-tree model — any other name is a decode error carrying
// the block context, not a model silently loaded as something else.
func TestColumnarSnapshotForeignModelKind(t *testing.T) {
	snap, _ := trainedSnapshot(t, 310)
	raw := reframeSnapshot(t, snap, func(name string, payload []byte) ([]byte, bool) {
		if name != "meta" {
			return payload, true
		}
		var meta colfmt.Enc
		meta.Uvarint(uint64(snap.Version))
		meta.Str("svm")
		meta.Varint(int64(snap.Config.MinSalesVolume))
		meta.Bool(snap.Config.DisableRuleFilter)
		meta.F64(snap.Config.Threshold)
		meta.Byte(snapFlagTrainSample)
		return meta.Bytes(), true
	})
	_, err := ReadSnapshot(bytes.NewReader(raw))
	var ce *colfmt.Error
	if !errors.As(err, &ce) || ce.Block != "meta" || !strings.Contains(ce.Msg, `"svm"`) {
		t.Fatalf("foreign classifier kind: err = %v, want a colfmt.Error in block meta naming it", err)
	}
}

// TestColumnarSnapshotAllocationFollowsInput: a trainsample block
// whose shape promises more floats than its payload holds fails in that
// block before the floats are allocated — the hostile load costs no
// more than a valid load of the same snapshot, not the size it promised
// (a 6-byte trainsample block promising one 2^20-float row).
func TestColumnarSnapshotAllocationFollowsInput(t *testing.T) {
	snap, _ := trainedSnapshot(t, 311)
	valid := reframeSnapshot(t, snap, func(_ string, payload []byte) ([]byte, bool) { return payload, true })
	validBytes, err := loadAllocBytes(valid)
	if err != nil {
		t.Fatal(err)
	}
	raw := reframeSnapshot(t, snap, func(name string, payload []byte) ([]byte, bool) {
		if name == "trainsample" {
			var e colfmt.Enc
			e.Uvarint(1)
			e.IntsCol([]int{1 << 20})
			payload = e.Bytes()
		}
		return payload, true
	})
	got, err := loadAllocBytes(raw)
	var ce *colfmt.Error
	if !errors.As(err, &ce) || ce.Block != "trainsample" {
		t.Fatalf("hostile trainsample block: err = %v, want a colfmt.Error in that block", err)
	}
	if got > validBytes {
		t.Errorf("hostile trainsample block (%d-byte snapshot): load allocated %d bytes, a valid load %d", len(raw), got, validBytes)
	}
}

// loadAllocBytes reads raw as a snapshot and reports the fewest bytes
// three reads allocated, with the read's error.
func loadAllocBytes(raw []byte) (uint64, error) {
	least := uint64(math.MaxUint64)
	var err error
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = ReadSnapshot(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least, err
}

// TestColumnarSnapshotWrongKind: a dataset container is not a model.
func TestColumnarSnapshotWrongKind(t *testing.T) {
	var out bytes.Buffer
	w, err := colfmt.NewWriter(&out, colfmt.KindDataset)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock("arena", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(out.Bytes())); err == nil {
		t.Fatal("dataset container accepted as snapshot")
	}
}

// TestColumnarSnapshotFlagsDenyBlock: a trainsample block the meta
// flags deny is refused at load, as a missing block they promise is.
// Loaded, it came back with its flag set, so a re-save wrote other
// bytes than the file's and the content-hash version moved.
func TestColumnarSnapshotFlagsDenyBlock(t *testing.T) {
	raw := reframeSnapshot(t, tinySnapshot(), func(name string, payload []byte) ([]byte, bool) {
		if name == "meta" {
			payload = bytes.Clone(payload)
			payload[len(payload)-1] &^= snapFlagTrainSample
		}
		return payload, true
	})
	_, err := ReadSnapshot(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), `"trainsample" present but meta flags no`) {
		t.Errorf("trainsample block without its flag: err = %v, want it refused by name", err)
	}
}

// TestColumnarSnapshotEmptySample: a trainsample block of no rows is
// refused. The writer leaves the block and its flag out for an empty
// sample, so no re-save could reproduce the file.
func TestColumnarSnapshotEmptySample(t *testing.T) {
	raw := reframeSnapshot(t, tinySnapshot(), func(name string, payload []byte) ([]byte, bool) {
		if name == "trainsample" {
			var e colfmt.Enc
			e.Uvarint(0)
			e.IntsCol(nil)
			payload = e.Bytes()
		}
		return payload, true
	})
	_, err := ReadSnapshot(bytes.NewReader(raw))
	var ce *colfmt.Error
	if !errors.As(err, &ce) || ce.Block != "trainsample" {
		t.Fatalf("empty trainsample block: err = %v, want a colfmt.Error in that block", err)
	}
}

// TestColumnarSnapshotRefusesNonFinite: a float a loaded model holds
// must be finite, and its Threshold a probability. Each file below is
// refused at load in the block and with the column and row that carry
// the bad value, so no model holds a value a JSON re-save cannot spell.
func TestColumnarSnapshotRefusesNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	written := func(edit func(s *DetectorSnapshot)) []byte {
		s := tinySnapshot()
		edit(s)
		return reframeSnapshot(t, s, func(_ string, payload []byte) ([]byte, bool) { return payload, true })
	}
	for _, c := range []struct {
		name, block, msg string
		raw              []byte
	}{
		{"NaN split threshold", "gbt", "node column thresholds row 0 is NaN",
			written(func(s *DetectorSnapshot) { s.GBT.Trees[0][0].Threshold = nan })},
		{"+Inf leaf weight", "gbt", "node column weights row 2 is +Inf",
			written(func(s *DetectorSnapshot) { s.GBT.Trees[0][2].Weight = inf })},
		{"NaN base score", "gbt", "base score is NaN",
			written(func(s *DetectorSnapshot) { s.GBT.BaseScore = nan })},
		{"-Inf learning rate", "gbt", "config LearningRate is -Inf",
			written(func(s *DetectorSnapshot) { s.GBT.Config.LearningRate = -inf })},
		{"NaN log prior", "sentiment", "log priors row 1 is NaN",
			written(func(s *DetectorSnapshot) { s.Analyzer.Sentiment.LogPrior[1] = nan })},
		{"-Inf OOV value", "sentiment", "OOV log-likelihoods row 0 is -Inf",
			written(func(s *DetectorSnapshot) { s.Analyzer.Sentiment.LogOOV[0] = -inf })},
		{"NaN log-likelihood", "sentiment", "class 1 log-likelihoods row 2 is NaN",
			written(func(s *DetectorSnapshot) { s.Analyzer.Sentiment.LogLik[1].Vals[2] = nan })},
		{"NaN threshold", "meta", "config threshold NaN is outside [0, 1]",
			written(func(s *DetectorSnapshot) { s.Config.Threshold = nan })},
		{"threshold above 1", "meta", "config threshold 1.5 is outside [0, 1]",
			written(func(s *DetectorSnapshot) { s.Config.Threshold = 1.5 })},
		{"NaN training-sample value", "trainsample", "sample row 1 value 10 is NaN",
			reframeSnapshot(t, tinySnapshot(), func(name string, payload []byte) ([]byte, bool) {
				if name == "trainsample" {
					payload = bytes.Clone(payload)
					binary.LittleEndian.PutUint64(payload[len(payload)-8:], math.Float64bits(nan))
				}
				return payload, true
			})},
	} {
		_, err := ReadSnapshot(bytes.NewReader(c.raw))
		var ce *colfmt.Error
		if !errors.As(err, &ce) || ce.Block != c.block || ce.Msg != c.msg {
			t.Errorf("%s: err = %v, want %q in block %q", c.name, err, c.msg, c.block)
		}
	}
}

// TestColumnarSampleRefusesNonFinite: every finite float, the extremes
// and -0 among them, loads bit for bit in the drift sample; a NaN or
// ±Inf anywhere in it is refused, named by its row and its place in
// the row.
func TestColumnarSampleRefusesNonFinite(t *testing.T) {
	finite := []float64{0, math.Copysign(0, -1), 1, -2.5, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	s := tinySnapshot()
	s.TrainingSample = [][]float64{make([]float64, features.NumFeatures), make([]float64, features.NumFeatures)}
	for i := 0; i < 2*features.NumFeatures; i++ {
		s.TrainingSample[i/features.NumFeatures][i%features.NumFeatures] = finite[i%len(finite)]
	}
	var buf bytes.Buffer
	if err := WriteSnapshotColumnar(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("finite sample: %v", err)
	}
	for i, row := range s.TrainingSample {
		for j, v := range row {
			if g := got.TrainingSample[i][j]; math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("sample row %d value %d: read %v, wrote %v", i, j, g, v)
			}
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		raw := reframeSnapshot(t, s, func(name string, payload []byte) ([]byte, bool) {
			if name == "trainsample" {
				// The floats end the block: row 1 value 1 is the
				// (NumFeatures-1)th from the end.
				payload = bytes.Clone(payload)
				off := len(payload) - 8*(features.NumFeatures-1)
				binary.LittleEndian.PutUint64(payload[off:], math.Float64bits(bad))
			}
			return payload, true
		})
		_, err := ReadSnapshot(bytes.NewReader(raw))
		want := fmt.Sprintf("sample row 1 value 1 is %v", bad)
		var ce *colfmt.Error
		if !errors.As(err, &ce) || ce.Block != "trainsample" || ce.Msg != want {
			t.Errorf("%v at sample row 1 value 1: err = %v, want %q in block trainsample", bad, err, want)
		}
	}
}

// TestJSONSnapshotThresholdRange: a JSON model's Threshold must be a
// probability too, so every model a load accepts re-saves in the
// columnar format to a file that loads.
func TestJSONSnapshotThresholdRange(t *testing.T) {
	for _, thr := range []float64{-0.5, 1.5} {
		s := tinySnapshot()
		s.Config.Threshold = thr
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, s); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(&buf); err == nil || !strings.Contains(err.Error(), "outside [0, 1]") {
			t.Errorf("JSON threshold %v: err = %v, want it refused", thr, err)
		}
	}
}

// TestColumnarLoadDecodesEveryPart: a columnar read returns the whole
// snapshot that was saved, the drift sample included, and re-encodes to
// the saved bytes in both formats.
func TestColumnarLoadDecodesEveryPart(t *testing.T) {
	want := tinySnapshot()
	var saved, savedJSON bytes.Buffer
	if err := WriteSnapshotColumnar(&saved, want); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&savedJSON, want); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, want) {
		t.Errorf("columnar read = %+v, want %+v", snap, want)
	}
	det, _, err := DetectorFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := det.TrainingSample(); !reflect.DeepEqual(got, want.TrainingSample) {
		t.Errorf("drift sample %v, want %v", got, want.TrainingSample)
	}
	for format, wantBytes := range map[SnapshotFormat][]byte{FormatColumnar: saved.Bytes(), FormatJSON: savedJSON.Bytes()} {
		var again bytes.Buffer
		if err := WriteSnapshotFormat(&again, snap, format); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), wantBytes) {
			t.Errorf("format %d: the loaded snapshot re-encodes to other bytes", format)
		}
	}
}

// TestLegacyEmbeddingIsSkipped: a file written while models still
// carried the word2vec embedding loads to the snapshot it holds without
// it, whatever the embedding's shape or the meta flag bit that
// announced it, and a re-save is the current writer's file: no w2v
// block, no flag, no JSON embedding key.
func TestLegacyEmbeddingIsSkipped(t *testing.T) {
	var current, currentJSON bytes.Buffer
	if err := WriteSnapshotColumnar(&current, tinySnapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&currentJSON, tinySnapshot()); err != nil {
		t.Fatal(err)
	}
	keep := func(b byte) byte { return b }
	same := func(p []byte) []byte { return p }
	for name, raw := range map[string][]byte{
		"columnar as written":             legacyColumnar(t, keep, same),
		"columnar, flag bit 0 clear":      legacyColumnar(t, func(b byte) byte { return b &^ 1 }, same),
		"columnar, block one float short": legacyColumnar(t, keep, func(p []byte) []byte { return p[:len(p)-8] }),
		"columnar, dim 0": legacyColumnar(t, keep, func(p []byte) []byte {
			return append([]byte{0}, p[1:]...) // dim is the first varint: 2 → 0
		}),
		"JSON as written": legacyJSON(t, `{"dim":2,"words":["好评","差评"],"counts":[3,1],"vectors":[[1,0],[0,1]]}`),
		"JSON, malformed": legacyJSON(t, `{"dim":"two","vectors":[[1,"x"]]}`),
	} {
		snap, err := ReadSnapshot(bytes.NewReader(raw))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if _, _, err := DetectorFromSnapshot(snap); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(snap, tinySnapshot()) {
			t.Errorf("%s: read %+v, want tinySnapshot", name, snap)
		}
		for format, want := range map[SnapshotFormat][]byte{FormatColumnar: current.Bytes(), FormatJSON: currentJSON.Bytes()} {
			var again bytes.Buffer
			if err := WriteSnapshotFormat(&again, snap, format); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), want) {
				t.Errorf("%s: the format %d re-save is not the current writer's file", name, format)
			}
		}
	}
}
