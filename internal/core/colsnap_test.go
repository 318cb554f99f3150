package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/colfmt"
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
func reframeSnapshot(t *testing.T, snap *DetectorSnapshot, edit func(name string, payload []byte) ([]byte, bool)) []byte {
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
