package sentiment

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	m := trainToy(t)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
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
	docs := [][]string{{"很好", "满意"}, {"太差"}, {"未知词", "很好"}, nil}
	for _, d := range docs {
		if m.Score(d) != m2.Score(d) {
			t.Fatalf("Score(%v) changed across round trip", d)
		}
	}
}

func TestSnapshotUnfitted(t *testing.T) {
	if _, err := (&Model{}).Snapshot(); err == nil {
		t.Error("unfitted snapshot should error")
	}
	if _, err := FromSnapshot(nil); err == nil {
		t.Error("nil snapshot should error")
	}
}

// TestLogLikJSONIsTheMapsObject: the columns encode to the bytes
// encoding/json writes for the same pairs in a map, and a map's JSON
// decodes to the sorted columns, a repeated key keeping its last value.
func TestLogLikJSONIsTheMapsObject(t *testing.T) {
	m := map[string]float64{"很好": -1.5, "a<b": 2, "": 0.1, "满意": -3e-9}
	want, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	l := LogLik{Words: []string{"", "a<b", "很好", "满意"}, Vals: []float64{0.1, 2, -1.5, -3e-9}}
	if got, err := json.Marshal(l); err != nil || string(got) != string(want) {
		t.Fatalf("columns encode to %s (%v), the map to %s", got, err, want)
	}
	var back LogLik
	if err := json.Unmarshal([]byte(`{"很好":-1.5,"满意":1,"":0.1,"a<b":2,"满意":-3e-9}`), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, l) {
		t.Fatalf("decoded %+v, want %+v", back, l)
	}
}

// TestFromSnapshotSortsColumns: columns out of order or repeating a
// word (a hand-built or hand-edited snapshot) restore the model a map
// filled in column order would: sorted, the last value of a word kept.
func TestFromSnapshotSortsColumns(t *testing.T) {
	s := &Snapshot{LogOOV: [2]float64{-9, -9}}
	s.LogLik[0] = LogLik{Words: []string{"b", "a", "b"}, Vals: []float64{1, 2, 3}}
	s.LogLik[1] = LogLik{Words: []string{"c"}, Vals: []float64{4}}
	m, err := FromSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	if want := (LogLik{Words: []string{"a", "b"}, Vals: []float64{2, 3}}); !reflect.DeepEqual(m.logLik[0], want) {
		t.Fatalf("class 0 = %+v, want %+v", m.logLik[0], want)
	}
	var words []string
	m.EachWordLogOdds(func(w string, _ float64) { words = append(words, w) })
	if !reflect.DeepEqual(words, []string{"a", "b", "c"}) {
		t.Fatalf("EachWordLogOdds visited %q, want the union in ascending order", words)
	}
	s.LogLik[1].Vals = nil
	if _, err := FromSnapshot(s); err == nil {
		t.Fatal("a class with more words than log-likelihoods restored")
	}
}
