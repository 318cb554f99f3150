package cats

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/colfmt"
	"repro/internal/ecom"
	"repro/internal/synth"
)

// compatItems is the fixed detection set whose verdicts
// testdata/compat/parent.detections records.
func compatItems() []ecom.Item {
	u := synth.Generate(synth.Config{Name: "compat", Seed: 1501, FraudEvidence: 20, FraudManual: 5, Normal: 35, Shops: 4})
	items := u.Dataset.Items
	for i := range items {
		if i%5 == 0 {
			items[i].SalesVolume = 1 // below the rule-filter cutoff
		}
	}
	return items
}

// TestLoadsParentWrittenSnapshots pins cross-version loading, which the
// round-trip tests cannot (they write and read with the same code):
// each pair of fixtures in testdata/compat was written by an earlier
// binary, and its .detections file is that binary's goldenFixture
// rendering of compatItems. Today's code must load both files of a pair
// and reproduce those bytes, and a columnar re-save must hold no w2v
// block.
//
// The fixtures are never regenerated from this tree — that would only
// prove a round trip. Each was made at its commit by a throwaway test:
//
//   - parent.*, at commit 058ef09 (PR 13): OracleAnalyzer(
//     textgen.NewBank(), synth.PolarCorpus(150, 66)), D0 =
//     synth.Generate({Name: "D0", Seed: 67, FraudEvidence: 40,
//     Normal: 40, Shops: 3}), NewFromAnalyzer(analyzer, D0,
//     DefaultConfig()), then SaveFileFormat in both formats. The oracle
//     analyzer has no embedding, so these files hold none.
//   - embedded.*, at commit 01e1a35, the last whose writers saved the
//     word2vec embedding (a w2v block and meta flag bit 0 in the .catc,
//     an "embedding" key in the JSON): Train with Corpus
//     synth.TrainingCorpus(2000, 69), synth.PolarCorpus(80, 66),
//     Vocabulary textgen.NewBank().Vocabulary(), Labeled D0 =
//     synth.Generate({Name: "D0", Seed: 67, FraudEvidence: 30,
//     Normal: 30, Shops: 3}) and DefaultConfig() with Analyzer
//     {Word2Vec: {Dim: 4, MinCount: 90, Seed: 68}, Lexicon: {MaxSize:
//     20}} (121 embedded words, 20-word lexicons), then
//     SaveFileFormat(path, sys.Vocabulary(), …) in both formats.
func TestLoadsParentWrittenSnapshots(t *testing.T) {
	for _, c := range []struct {
		prefix  string
		withW2V bool // whether the .catc holds a w2v block
	}{{"parent", false}, {"embedded", true}} {
		want, err := os.ReadFile(filepath.Join("testdata", "compat", c.prefix+".detections"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{c.prefix + ".json", c.prefix + ".catc"} {
			path := filepath.Join("testdata", "compat", name)
			sys, err := LoadFile(path)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := goldenFixture(t, sys, compatItems()); !bytes.Equal(got, want) {
				t.Errorf("%s: detections diverged from the parent's\n%s", name, fixtureDiff(want, got))
			}
			if filepath.Ext(name) == ".catc" && blockNames(t, path)["w2v"] != c.withW2V {
				t.Errorf("%s: the fixture's w2v block is not as recorded (want present: %v)", name, c.withW2V)
			}
			resaved := filepath.Join(t.TempDir(), "resaved.catc")
			if err := sys.SaveFileFormat(resaved, sys.Vocabulary(), FormatColumnar); err != nil {
				t.Fatal(err)
			}
			if blockNames(t, resaved)["w2v"] {
				t.Errorf("%s: the columnar re-save holds a w2v block", name)
			}
		}
	}
}

// blockNames lists the blocks of the columnar file at path.
func blockNames(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := colfmt.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for {
		name, _, err := r.Next()
		if err == io.EOF {
			return names
		}
		if err != nil {
			t.Fatal(err)
		}
		names[name] = true
	}
}
