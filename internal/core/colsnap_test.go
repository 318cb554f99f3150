package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/colfmt"
	"repro/internal/ecom"
	"repro/internal/synth"
	"repro/internal/textgen"
	"repro/internal/word2vec"
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

// TestColumnarSnapshotAllocationFollowsInput: a trainsample or w2v
// block whose shape promises more floats than its payload holds fails
// in that block before the floats are allocated — the hostile load costs
// no more than a valid load of the same snapshot, not the size it
// promised (a 6-byte trainsample block promising one 2^20-float row, a
// w2v block promising 65,536-dim vectors).
func TestColumnarSnapshotAllocationFollowsInput(t *testing.T) {
	snap, _ := trainedSnapshot(t, 311)
	snap.Analyzer.Embedding = &word2vec.Snapshot{
		Dim: 4, Words: []string{"好评", "差评"}, Counts: []int{3, 2},
		Vectors: [][]float64{{1, 0, 0.5, 0}, {0, 1, 0, -0.5}},
	}
	keep := func(_ string, payload []byte) ([]byte, bool) { return payload, true }
	valid := reframeSnapshot(t, snap, keep)
	validBytes, err := loadAllocBytes(valid)
	if err != nil {
		t.Fatal(err)
	}

	hostile := map[string]func(payload []byte) []byte{
		"trainsample": func([]byte) []byte {
			var e colfmt.Enc
			e.Uvarint(1)
			e.IntsCol([]int{1 << 20})
			return e.Bytes()
		},
		"w2v": func(payload []byte) []byte {
			// The valid block with its dim raised to the cap and its
			// floats dropped: words and counts still check out.
			_, k := binary.Varint(payload)
			var e colfmt.Enc
			e.Varint(1 << 16)
			return append(e.Bytes(), payload[k:len(payload)-8*4*2]...)
		},
	}
	for block, edit := range hostile {
		raw := reframeSnapshot(t, snap, func(name string, payload []byte) ([]byte, bool) {
			if name == block {
				return edit(payload), true
			}
			return payload, true
		})
		got, err := loadAllocBytes(raw)
		var ce *colfmt.Error
		if !errors.As(err, &ce) || ce.Block != block {
			t.Fatalf("hostile %s block: err = %v, want a colfmt.Error in that block", block, err)
		}
		if got > validBytes {
			t.Errorf("hostile %s block (%d-byte snapshot): load allocated %d bytes, a valid load %d", block, len(raw), got, validBytes)
		}
	}
}

// TestColumnarSnapshotRejectsDimZero: a w2v block of dim 0 is refused
// in that block. Accepted, it restored a model that saved itself at the
// default dim with empty vectors, a file no load accepts.
func TestColumnarSnapshotRejectsDimZero(t *testing.T) {
	snap, _ := trainedSnapshot(t, 312)
	snap.Analyzer.Embedding = &word2vec.Snapshot{
		Dim: 0, Words: []string{"好评", "差评"}, Counts: []int{3, 2},
		Vectors: [][]float64{{}, {}},
	}
	var buf bytes.Buffer
	if err := WriteSnapshotFormat(&buf, snap, FormatColumnar); err != nil {
		t.Fatal(err)
	}
	_, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	var ce *colfmt.Error
	if !errors.As(err, &ce) || ce.Block != "w2v" {
		t.Fatalf("dim-0 embedding: err = %v, want a colfmt.Error in block w2v", err)
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

// TestColumnarSnapshotFlagsDenyBlock: a w2v or trainsample block the
// meta flags deny is refused at load, as a missing block they promise
// is. Loaded, it came back with its flag set, so a re-save wrote other
// bytes than the file's and the content-hash version moved.
func TestColumnarSnapshotFlagsDenyBlock(t *testing.T) {
	for _, c := range []struct {
		deny  byte
		block string
	}{{snapFlagEmbedding, "w2v"}, {snapFlagTrainSample, "trainsample"}} {
		raw := reframeSnapshot(t, tinySnapshot(), func(name string, payload []byte) ([]byte, bool) {
			if name == "meta" {
				payload = bytes.Clone(payload)
				payload[len(payload)-1] &^= c.deny
			}
			return payload, true
		})
		_, err := ReadSnapshot(bytes.NewReader(raw))
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(c.block)+" present but meta flags no") {
			t.Errorf("%s block without its flag: err = %v, want it refused by name", c.block, err)
		}
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
// the bad value, the deferred blocks included, so no first read later
// meets a value a JSON re-save cannot spell.
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
		{"-Inf embedding value", "w2v", "vectors row 1 value 0 is -Inf",
			written(func(s *DetectorSnapshot) { s.Analyzer.Embedding.Vectors[1][0] = -inf })},
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

// TestColumnarLoadDefersEmbeddingAndSample: a columnar load leaves the
// embedding and the drift sample undecoded through detection, and the
// first read of each — or a re-save — decodes exactly what was saved.
func TestColumnarLoadDefersEmbeddingAndSample(t *testing.T) {
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
	if snap.Analyzer.Embedding != nil || snap.TrainingSample != nil {
		t.Fatal("a columnar read decoded the embedding or the drift sample")
	}
	det, a, err := DetectorFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	item := ecom.Item{ID: "x", SalesVolume: 100, Comments: []ecom.Comment{{Content: "好评很好"}}}
	if _, err := det.DetectItem(&item); err != nil {
		t.Fatal(err)
	}
	for name, pending := range map[string]bool{
		"snapshot embedding":  snap.Analyzer.w2v.decode != nil,
		"snapshot sample":     snap.trainSample.decode != nil,
		"analyzer embedding":  a.embedding.decode != nil,
		"detector drift base": det.trainSample.decode != nil,
	} {
		if !pending {
			t.Errorf("%s decoded by load and detection", name)
		}
	}

	if got := det.TrainingSample(); !reflect.DeepEqual(got, want.TrainingSample) {
		t.Errorf("drift sample %v, want %v", got, want.TrainingSample)
	}
	emb := a.Embedding()
	for i, w := range want.Analyzer.Embedding.Words {
		if v, ok := emb.Vector(w); !ok || !reflect.DeepEqual(v, want.Analyzer.Embedding.Vectors[i]) {
			t.Errorf("embedding of %q = %v, want %v", w, v, want.Analyzer.Embedding.Vectors[i])
		}
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

// TestDeferredPartsFirstReadConcurrent: goroutines that read a loaded
// model's deferred parts for the first time at once — the registry
// publishing the drift baseline, a lexicon query, a re-save — all see
// the same decoded parts. Run under -race.
func TestDeferredPartsFirstReadConcurrent(t *testing.T) {
	var saved bytes.Buffer
	if err := WriteSnapshotColumnar(&saved, tinySnapshot()); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	det, a, err := DetectorFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	samples := make([][][]float64, readers)
	models := make([]*word2vec.Model, readers)
	resaves := make([][]byte, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			samples[i] = det.TrainingSample()
			models[i] = a.Embedding()
			models[i].Nearest("好评", 1)
			var buf bytes.Buffer
			if err := WriteSnapshotColumnar(&buf, snap); err != nil {
				t.Error(err)
			}
			resaves[i] = buf.Bytes()
		}()
	}
	wg.Wait()
	for i := 1; i < readers; i++ {
		if &samples[i][0] != &samples[0][0] || models[i] != models[0] {
			t.Fatal("concurrent first reads decoded a part more than once")
		}
		if !bytes.Equal(resaves[i], saved.Bytes()) {
			t.Fatal("a concurrent re-save wrote other bytes")
		}
	}
}
