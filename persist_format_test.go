package cats

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/racetest"
	"repro/internal/synth"
	"repro/internal/textgen"
)

// TestSaveFileFormatColumnar: the columnar file path round-trips
// through the sniffing LoadFile with identical detections.
func TestSaveFileFormatColumnar(t *testing.T) {
	sys := trainSystem(t)
	bank := textgen.NewBank()
	path := filepath.Join(t.TempDir(), "model.catc")
	if err := sys.SaveFileFormat(path, bank.Vocabulary(), FormatColumnar); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	test := synth.Generate(synth.Config{
		Name: "colfile", Seed: 83, FraudEvidence: 10, Normal: 30, Shops: 3,
	})
	before, err := sys.Detect(test.Dataset.Items)
	if err != nil {
		t.Fatal(err)
	}
	after, err := restored.Detect(test.Dataset.Items)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("detection %d differs after columnar save/load: %+v vs %+v", i, before[i], after[i])
		}
	}
}

// TestColumnarResaveByteStable: the columnar codec is byte-stable
// across save→load→save, same contract the JSON codec pins.
func TestColumnarResaveByteStable(t *testing.T) {
	sys := trainSystem(t)
	bank := textgen.NewBank()

	var first bytes.Buffer
	if err := sys.SaveFormat(&first, bank.Vocabulary(), FormatColumnar); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := restored.SaveFormat(&second, bank.Vocabulary(), FormatColumnar); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("columnar snapshot not byte-stable across save→load→save: %d vs %d bytes",
			first.Len(), second.Len())
	}
}

// TestGoldenFormatEquivalence: a system restored from a columnar
// snapshot reproduces the checked-in golden fixtures bit for bit, same
// as the JSON path — the codec cannot perturb a single float of the
// detection pipeline.
func TestGoldenFormatEquivalence(t *testing.T) {
	sys := trainSystem(t)
	bank := textgen.NewBank()

	var jb, cb bytes.Buffer
	if err := sys.SaveFormat(&jb, bank.Vocabulary(), FormatJSON); err != nil {
		t.Fatal(err)
	}
	if err := sys.SaveFormat(&cb, bank.Vocabulary(), FormatColumnar); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := Load(bytes.NewReader(jb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromCol, err := Load(bytes.NewReader(cb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	for _, mix := range goldenMixes {
		t.Run(mix.name, func(t *testing.T) {
			want := goldenFixture(t, sys, mix.gen())
			if got := goldenFixture(t, fromJSON, mix.gen()); !bytes.Equal(want, got) {
				t.Fatalf("JSON-restored system diverges from the live one\n%s", fixtureDiff(want, got))
			}
			if got := goldenFixture(t, fromCol, mix.gen()); !bytes.Equal(want, got) {
				t.Fatalf("columnar-restored system diverges from the live one\n%s", fixtureDiff(want, got))
			}
		})
	}
}

// TestLoadFileCost pins what LoadFile of a trained columnar snapshot
// allocates: 453,472 bytes in 88 allocations for this model since the
// file no longer holds the word2vec embedding (698,168 in 100 before,
// when a load walked the embedding's block without decoding it), plus
// 25 %. A decode of something scoring does not read that creeps back
// into the load fails it. The fewest of five loads is taken, so a stray
// runtime allocation does not count.
func TestLoadFileCost(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates beside the code it instruments")
	}
	path := filepath.Join(t.TempDir(), "model.catc")
	if err := trainSystem(t).SaveFileFormat(path, textgen.NewBank().Vocabulary(), FormatColumnar); err != nil {
		t.Fatal(err)
	}
	bytesLeast, allocsLeast := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := LoadFile(path); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytesLeast = min(bytesLeast, after.TotalAlloc-before.TotalAlloc)
		allocsLeast = min(allocsLeast, after.Mallocs-before.Mallocs)
	}
	const maxBytes, maxAllocs = 566_840, 110
	if bytesLeast > maxBytes || allocsLeast > maxAllocs {
		t.Errorf("LoadFile allocated %d bytes in %d allocations; the pin is %d in %d", bytesLeast, allocsLeast, maxBytes, maxAllocs)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("LoadFile of a %d-byte model: %d bytes in %d allocations", st.Size(), bytesLeast, allocsLeast)
}
