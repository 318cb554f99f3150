package word2vec

import (
	"encoding/json"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	m := trainTestModel(t)
	snap := m.Snapshot()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	m2, err := FromSnapshot(&back)
	if err != nil {
		t.Fatal(err)
	}
	if m2.VocabSize() != m.VocabSize() {
		t.Fatalf("vocab size %d != %d", m2.VocabSize(), m.VocabSize())
	}
	// Similarities and neighbor queries must be identical.
	s1, err := m.Similarity("好评", "很好")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m2.Similarity("好评", "很好")
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("similarity changed: %v vs %v", s1, s2)
	}
	n1 := m.Nearest("好评", 5)
	n2 := m2.Nearest("好评", 5)
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatalf("neighbor %d changed: %+v vs %+v", i, n1[i], n2[i])
		}
	}
	if m2.Count("好评") != m.Count("好评") {
		t.Error("counts changed")
	}
}

func TestFromSnapshotValidation(t *testing.T) {
	if _, err := FromSnapshot(nil); err == nil {
		t.Error("nil snapshot should error")
	}
	if _, err := FromSnapshot(&Snapshot{Words: []string{"a"}, Counts: []int{1}}); err == nil {
		t.Error("shape mismatch should error")
	}
	bad := &Snapshot{Dim: 4, Words: []string{"a"}, Counts: []int{1}, Vectors: [][]float64{{1, 2}}}
	if _, err := FromSnapshot(bad); err == nil {
		t.Error("wrong vector dim should error")
	}
	// A model restored from dim 0 would snapshot itself at another
	// dim, and that snapshot would not load.
	for _, dim := range []int{0, -1} {
		zero := &Snapshot{Dim: dim, Words: []string{"a"}, Counts: []int{1}, Vectors: [][]float64{{}}}
		if _, err := FromSnapshot(zero); err == nil {
			t.Errorf("dim %d should error", dim)
		}
	}
}
