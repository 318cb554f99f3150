package cats

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/synth"
	"repro/internal/textgen"
)

func TestSystemSaveLoadRoundTrip(t *testing.T) {
	sys := trainSystem(t)
	bank := textgen.NewBank()

	var buf bytes.Buffer
	if err := sys.Save(&buf, bank.Vocabulary()); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	test := synth.Generate(synth.Config{
		Name: "roundtrip", Seed: 81, FraudEvidence: 20, Normal: 60, Shops: 4,
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
			t.Fatalf("detection %d differs after save/load: %+v vs %+v", i, before[i], after[i])
		}
	}

	// Feature importance survives too (Fig 7 from a shipped model).
	imp, err := restored.FeatureImportance()
	if err != nil {
		t.Fatal(err)
	}
	if len(imp) != 11 {
		t.Fatalf("importance entries = %d", len(imp))
	}
}

// onlyEntries fails the test unless dir holds exactly the named entries:
// a save, finished or failed, leaves no *.tmp-* sibling behind.
func onlyEntries(t *testing.T, dir string, want ...string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("%s holds %q, want %q", dir, got, want)
	}
}

func TestSystemSaveLoadFile(t *testing.T) {
	sys := trainSystem(t)
	bank := textgen.NewBank()
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := sys.SaveFile(path, bank.Vocabulary()); err != nil {
		t.Fatal(err)
	}
	onlyEntries(t, dir, "model.json")
	restored, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	test := synth.Generate(synth.Config{
		Name: "file", Seed: 82, FraudEvidence: 5, Normal: 15, Shops: 2,
	})
	if _, err := restored.Detect(test.Dataset.Items); err != nil {
		t.Fatal(err)
	}
}

// TestSaveLoadResaveByteStable pins snapshot byte-determinism: saving,
// loading, and saving again must reproduce the original bytes exactly.
// Anything less means the segmenter dictionary, lexicons, or tree
// ensemble is serialized in an unstable (e.g. map-iteration) order,
// which would break content-addressed model storage and make model
// diffs meaningless.
func TestSaveLoadResaveByteStable(t *testing.T) {
	sys := trainSystem(t)
	bank := textgen.NewBank()

	var first bytes.Buffer
	if err := sys.Save(&first, bank.Vocabulary()); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := restored.Save(&second, bank.Vocabulary()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("snapshot not byte-stable across save→load→save: %d vs %d bytes", first.Len(), second.Len())
	}

	// And saving the same system twice is stable too.
	var again bytes.Buffer
	if err := sys.Save(&again, bank.Vocabulary()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), again.Bytes()) {
		t.Fatal("two saves of the same system differ")
	}
}

// TestLoadTruncated feeds Load every prefix of a valid snapshot at a
// few cut points: all must error, none may panic or return a
// half-restored system.
func TestLoadTruncated(t *testing.T) {
	sys := trainSystem(t)
	bank := textgen.NewBank()
	var buf bytes.Buffer
	if err := sys.Save(&buf, bank.Vocabulary()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, frac := range []float64{0, 0.25, 0.5, 0.9, 0.999} {
		n := int(float64(len(full)) * frac)
		if _, err := Load(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("loading %d/%d bytes should error", n, len(full))
		}
	}
}

// TestLoadWrongVersion rejects snapshots from an incompatible format
// version with a useful error rather than misreading them.
func TestLoadWrongVersion(t *testing.T) {
	sys := trainSystem(t)
	bank := textgen.NewBank()
	var buf bytes.Buffer
	if err := sys.Save(&buf, bank.Vocabulary()); err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	snap["version"] = 999
	mangled, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(mangled)); err == nil {
		t.Fatal("future-version snapshot should be rejected")
	} else if !strings.Contains(err.Error(), "version") {
		t.Fatalf("error should mention the version mismatch, got: %v", err)
	}
}

// TestLoadValidJSONWrongShape: parseable JSON that is not a snapshot
// (or is an empty one) must error, not yield a detector that panics on
// first use.
func TestLoadValidJSONWrongShape(t *testing.T) {
	for _, body := range []string{`{}`, `[]`, `{"version":1}`, `"hello"`, `null`} {
		if _, err := Load(bytes.NewBufferString(body)); err == nil {
			t.Errorf("Load(%q) should error", body)
		}
	}
}

// TestSaveFileUnwritable surfaces filesystem errors from SaveFile
// instead of swallowing them.
func TestSaveFileUnwritable(t *testing.T) {
	sys := trainSystem(t)
	bank := textgen.NewBank()
	dir := t.TempDir()
	if err := sys.SaveFile(filepath.Join(dir, "missing-dir", "model.json"), bank.Vocabulary()); err == nil {
		t.Fatal("SaveFile into a missing directory should error")
	}
	// A save that fails at its last step before publishing, the rename
	// (over a directory that is not empty), removes its temporary file.
	taken := filepath.Join(dir, "model.json")
	if err := os.MkdirAll(filepath.Join(taken, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := sys.SaveFile(taken, bank.Vocabulary()); err == nil {
		t.Fatal("SaveFile over a non-empty directory should error")
	}
	onlyEntries(t, dir, "model.json")

	// A directory that takes the file but cannot be opened to be synced:
	// the rename may not be durable, and the save says so.
	locked := filepath.Join(dir, "locked")
	if err := os.Mkdir(locked, 0o300); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(locked, 0o700) // for TempDir's cleanup
	if d, err := os.Open(locked); err == nil {
		d.Close()
		t.Log("this user opens a write-only directory (root): the directory sync cannot be made to fail")
		return
	}
	err := sys.SaveFile(filepath.Join(locked, "model.json"), bank.Vocabulary())
	if err == nil || !strings.Contains(err.Error(), "sync directory") {
		t.Fatalf("SaveFile into a directory that cannot be opened: %v, want the directory sync's error", err)
	}
}

// TestSaveFileCorruptRoundTripFile corrupts the on-disk snapshot and
// checks LoadFile reports it.
func TestSaveFileCorruptRoundTripFile(t *testing.T) {
	sys := trainSystem(t)
	bank := textgen.NewBank()
	path := filepath.Join(t.TempDir(), "model.json")
	if err := sys.SaveFile(path, bank.Vocabulary()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Fatal("truncated snapshot file should fail to load")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestLoadCorrupt(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("corrupt input should error")
	}
}

// TestLoadRejectsOutOfRangeSplitFeature: a snapshot that decodes
// cleanly but whose split nodes name feature 99 of 11 must fail at
// Load. It used to load and then die with an index-out-of-range panic
// inside a scoring goroutine on the first Detect — unrecoverable, so a
// serving reload of such a file took the process down.
func TestLoadRejectsOutOfRangeSplitFeature(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "compat", "parent.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(raw)); err != nil {
		t.Fatalf("unedited snapshot: %v", err)
	}
	var snap map[string]any
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	edited := 0
	for _, tree := range snap["gbt"].(map[string]any)["trees"].([]any) {
		for _, n := range tree.([]any) {
			if node := n.(map[string]any); node["leaf"] == false {
				node["f"] = 99
				edited++
			}
		}
	}
	if edited == 0 {
		t.Fatal("fixture has no split nodes to edit")
	}
	hostile, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load(bytes.NewReader(hostile))
	if err == nil || !strings.Contains(err.Error(), "split feature 99") || !strings.Contains(err.Error(), "tree ") {
		t.Fatalf("Load of a snapshot splitting on feature 99: err = %v, want an error naming the tree and node", err)
	}
}
