package cats

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

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
// testdata/compat/parent.{json,catc} were written by the binary of
// commit 058ef09 (PR 13) and parent.detections is that binary's
// goldenFixture rendering of compatItems. Today's code must load both
// files and reproduce those bytes.
//
// The fixtures are never regenerated from this tree — that would only
// prove a round trip. They were made at that commit by a throwaway
// test: OracleAnalyzer(textgen.NewBank(), synth.PolarCorpus(150, 66)),
// D0 = synth.Generate({Name: "D0", Seed: 67, FraudEvidence: 40,
// Normal: 40, Shops: 3}), NewFromAnalyzer(analyzer, D0,
// DefaultConfig()), then SaveFileFormat in both formats.
func TestLoadsParentWrittenSnapshots(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "compat", "parent.detections"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"parent.json", "parent.catc"} {
		sys, err := LoadFile(filepath.Join("testdata", "compat", name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := goldenFixture(t, sys, compatItems()); !bytes.Equal(got, want) {
			t.Errorf("%s: detections diverged from the parent's\n%s", name, fixtureDiff(want, got))
		}
	}
}
