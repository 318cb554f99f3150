package gbt

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/ml/mltest"
)

func TestSnapshotRoundTrip(t *testing.T) {
	ds := mltest.Gaussians(400, 4, 2, 21)
	ds.FeatureNames = []string{"a", "b", "c", "d"}
	clf := New(Config{Rounds: 30, MaxDepth: 4, Seed: 2})
	if err := clf.Fit(ds); err != nil {
		t.Fatal(err)
	}
	snap, err := clf.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// JSON round trip, as persistence does.
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	clf2, err := FromSnapshot(&back)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range ds.X {
		if clf.PredictProba(x) != clf2.PredictProba(x) {
			t.Fatal("restored model disagrees with original")
		}
	}
	imp1, _ := clf.FeatureImportance()
	imp2, _ := clf2.FeatureImportance()
	for i := range imp1 {
		if imp1[i] != imp2[i] {
			t.Fatal("importance changed across round trip")
		}
	}
}

func TestSnapshotBeforeFit(t *testing.T) {
	if _, err := New(Config{}).Snapshot(); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("err = %v, want ErrNotFitted", err)
	}
}

// TestFromSnapshotValidation: a malformed tree is refused at load,
// with an error naming the tree and node, instead of producing a model
// that indexes out of range or loops at prediction time.
func TestFromSnapshotValidation(t *testing.T) {
	if _, err := FromSnapshot(nil); err == nil {
		t.Error("nil snapshot should error")
	}
	leaf := NodeDTO{Leaf: true, Weight: 0.5, Left: -1, Right: -1}
	good := []NodeDTO{{Feature: 1, Threshold: 1, Left: 1, Right: 2}, leaf, leaf}
	cases := []struct {
		name string
		tree []NodeDTO
		want string // substring of the error
	}{
		{"empty tree", []NodeDTO{}, "tree 1 is empty"},
		{"feature above the feature count", []NodeDTO{{Feature: 2, Threshold: 1, Left: 1, Right: 2}, leaf, leaf}, "tree 1: node 0: split feature 2 outside [0, 2)"},
		{"feature far out of range", []NodeDTO{{Feature: 99, Threshold: 1, Left: 1, Right: 2}, leaf, leaf}, "split feature 99"},
		{"negative feature", []NodeDTO{{Feature: -1, Threshold: 1, Left: 1, Right: 2}, leaf, leaf}, "split feature -1"},
		{"dangling left child", []NodeDTO{{Feature: 0, Threshold: 1, Left: 5, Right: 1}, leaf}, "tree 1: node 0: child index 5 outside [0, 2)"},
		{"negative right child", []NodeDTO{{Feature: 0, Threshold: 1, Left: 1, Right: -1}, leaf}, "node 0: child index -1"},
		{"self cycle", []NodeDTO{{Feature: 0, Threshold: 1, Left: 0, Right: 0}}, "node 0 reached twice"},
		{"cycle through a grandchild", []NodeDTO{{Feature: 0, Threshold: 1, Left: 1, Right: 2}, {Feature: 1, Threshold: 2, Left: 0, Right: 2}, leaf}, "node 0 reached twice"},
		{"shared child", []NodeDTO{{Feature: 0, Threshold: 1, Left: 1, Right: 1}, leaf}, "tree 1: node 1 reached twice"},
		{"bad node below a good one", []NodeDTO{{Feature: 0, Threshold: 1, Left: 1, Right: 2}, leaf, {Feature: 7, Threshold: 3, Left: 1, Right: 1}}, "tree 1: node 2: split feature 7"},
	}
	for _, tc := range cases {
		// Tree 0 is well formed, so the error must single out tree 1.
		snap := &Snapshot{SplitCount: []int{0, 0}, Trees: [][]NodeDTO{good, tc.tree}}
		_, err := FromSnapshot(snap)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	c, err := FromSnapshot(&Snapshot{SplitCount: []int{0, 0}, Trees: [][]NodeDTO{good}})
	if err != nil {
		t.Fatalf("well-formed tree refused: %v", err)
	}
	if got := c.PredictMargin([]float64{0, 0}); got != c.cfg.LearningRate*0.5 {
		t.Fatalf("margin = %v, want one leaf of weight 0.5", got)
	}
}
