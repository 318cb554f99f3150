package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	ok := &Dataset{X: [][]float64{{1, 2}, {3, 4}}, Y: []int{0, 1}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	cases := []struct {
		name string
		ds   *Dataset
	}{
		{"nil", nil},
		{"empty", &Dataset{}},
		{"label mismatch", &Dataset{X: [][]float64{{1}}, Y: []int{0, 1}}},
		{"ragged", &Dataset{X: [][]float64{{1, 2}, {3}}, Y: []int{0, 1}}},
		{"zero width", &Dataset{X: [][]float64{{}}, Y: []int{0}}},
		{"bad label", &Dataset{X: [][]float64{{1}}, Y: []int{2}}},
	}
	for _, c := range cases {
		if err := c.ds.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", c.name)
		}
	}
	// A non-finite value is refused by row and feature, named when the
	// dataset names its features.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ds := &Dataset{X: [][]float64{{1, 2}, {3, v}}, Y: []int{0, 1}}
		if err := ds.Validate(); err == nil || err.Error() != fmt.Sprintf("ml: row 1 feature 1 is %v", v) {
			t.Errorf("feature %v: Validate() = %v", v, err)
		}
		ds.FeatureNames = []string{"a", "b"}
		if err := ds.Validate(); err == nil || err.Error() != fmt.Sprintf("ml: row 1 feature 1 (b) is %v", v) {
			t.Errorf("named feature %v: Validate() = %v", v, err)
		}
	}
	if !errors.Is((&Dataset{}).Validate(), ErrEmptyDataset) {
		t.Error("empty dataset should return ErrEmptyDataset")
	}
}

func TestSubset(t *testing.T) {
	ds := &Dataset{X: [][]float64{{1}, {2}, {3}}, Y: []int{0, 1, 0}, FeatureNames: []string{"f"}}
	sub := ds.Subset([]int{2, 0})
	if sub.Len() != 2 || sub.X[0][0] != 3 || sub.Y[0] != 0 || sub.X[1][0] != 1 {
		t.Fatalf("Subset = %+v", sub)
	}
	if sub.FeatureNames[0] != "f" {
		t.Error("Subset dropped feature names")
	}
}

func TestPositiveRate(t *testing.T) {
	ds := &Dataset{X: [][]float64{{1}, {2}, {3}, {4}}, Y: []int{1, 1, 1, 0}}
	if got := ds.PositiveRate(); got != 0.75 {
		t.Fatalf("PositiveRate = %v", got)
	}
	if got := (&Dataset{}).PositiveRate(); got != 0 {
		t.Fatalf("empty PositiveRate = %v", got)
	}
}

func TestShuffleKeepsPairs(t *testing.T) {
	ds := &Dataset{
		X: [][]float64{{0}, {1}, {2}, {3}, {4}, {5}},
		Y: []int{0, 1, 0, 1, 0, 1},
	}
	ds.Shuffle(rand.New(rand.NewSource(1)))
	for i := range ds.X {
		want := int(ds.X[i][0]) % 2
		if ds.Y[i] != want {
			t.Fatalf("row/label pairing broken at %d", i)
		}
	}
}

func TestThreshold(t *testing.T) {
	if Threshold(0.5) != 1 || Threshold(0.49) != 0 || Threshold(1) != 1 || Threshold(0) != 0 {
		t.Fatal("Threshold misbehaves")
	}
}

func TestStandardizer(t *testing.T) {
	rows := [][]float64{{1, 100}, {3, 300}}
	s := FitStandardizer(rows)
	out := s.Transform([]float64{2, 200})
	if math.Abs(out[0]) > 1e-12 || math.Abs(out[1]) > 1e-12 {
		t.Fatalf("mean row should standardize to 0, got %v", out)
	}
	all := s.TransformAll(rows)
	if math.Abs(all[0][0]+1) > 1e-12 || math.Abs(all[1][0]-1) > 1e-12 {
		t.Fatalf("unit-std rows wrong: %v", all)
	}
}

func TestStandardizerConstantFeature(t *testing.T) {
	s := FitStandardizer([][]float64{{5}, {5}, {5}})
	out := s.Transform([]float64{5})
	if out[0] != 0 {
		t.Fatalf("constant feature should map to 0, got %v", out[0])
	}
}

func TestStandardizerEmpty(t *testing.T) {
	s := FitStandardizer(nil)
	out := s.Transform([]float64{1, 2})
	if out[0] != 1 || out[1] != 2 {
		t.Fatalf("empty standardizer should copy input, got %v", out)
	}
}

// Property: standardized output of the fitted rows has ~zero mean per
// feature.
func TestStandardizerZeroMeanProperty(t *testing.T) {
	f := func(seed int64, nRaw, wRaw uint8) bool {
		n := int(nRaw%20) + 2
		w := int(wRaw%5) + 1
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, w)
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64() * 10
			}
		}
		s := FitStandardizer(rows)
		out := s.TransformAll(rows)
		for j := 0; j < w; j++ {
			var mean float64
			for i := range out {
				mean += out[i][j]
			}
			mean /= float64(n)
			if math.Abs(mean) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
