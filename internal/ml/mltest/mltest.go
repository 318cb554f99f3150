// Package mltest provides shared fixtures for classifier tests: small
// deterministic synthetic datasets with known structure (linearly
// separable Gaussians, XOR, constant features) and a generic conformance
// harness every classifier must pass.
package mltest

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ml"
)

// Gaussians returns an n-row, dim-feature dataset of two spherical
// Gaussian classes whose means are separated by sep standard
// deviations along every axis.
func Gaussians(n, dim int, sep float64, seed int64) *ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &ml.Dataset{}
	for i := 0; i < n; i++ {
		y := i % 2
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64() + float64(y)*sep
		}
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, y)
	}
	ds.Shuffle(rng)
	return ds
}

// XOR returns a noisy XOR dataset: non-linearly separable, so linear
// models fail it while trees/boosting/MLP should succeed.
func XOR(n int, seed int64) *ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &ml.Dataset{}
	for i := 0; i < n; i++ {
		a, b := rng.Intn(2), rng.Intn(2)
		row := []float64{
			float64(a) + rng.NormFloat64()*0.1,
			float64(b) + rng.NormFloat64()*0.1,
		}
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, a^b)
	}
	return ds
}

// Accuracy computes training-set accuracy of clf over ds.
func Accuracy(clf ml.Classifier, ds *ml.Dataset) float64 {
	correct := 0
	for i, x := range ds.X {
		if clf.Predict(x) == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

// Conformance runs the behavioral contract every classifier must meet:
// rejects invalid datasets, learns separable data, emits probabilities
// in [0,1] consistent with Predict's 0.5 thresholding convention (up to
// each model's own decision rule), and is deterministic.
func Conformance(t *testing.T, name string, factory func() ml.Classifier) {
	t.Helper()

	t.Run(name+"/rejects empty dataset", func(t *testing.T) {
		if err := factory().Fit(&ml.Dataset{}); err == nil {
			t.Fatal("Fit(empty) = nil, want error")
		}
	})

	t.Run(name+"/rejects ragged dataset", func(t *testing.T) {
		bad := &ml.Dataset{X: [][]float64{{1, 2}, {3}}, Y: []int{0, 1}}
		if err := factory().Fit(bad); err == nil {
			t.Fatal("Fit(ragged) = nil, want error")
		}
	})

	t.Run(name+"/rejects non-finite features", func(t *testing.T) {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			bad := Gaussians(40, 2, 3.0, 1)
			bad.X[7][1] = v
			if err := factory().Fit(bad); err == nil || !strings.Contains(err.Error(), "row 7 feature 1") {
				t.Fatalf("Fit(feature %v) = %v, want an error naming row 7 feature 1", v, err)
			}
		}
	})

	t.Run(name+"/learns separable data", func(t *testing.T) {
		train := Gaussians(400, 4, 3.0, 1)
		test := Gaussians(200, 4, 3.0, 2)
		clf := factory()
		if err := clf.Fit(train); err != nil {
			t.Fatalf("Fit: %v", err)
		}
		if acc := Accuracy(clf, test); acc < 0.95 {
			t.Fatalf("test accuracy %.3f < 0.95 on well-separated Gaussians", acc)
		}
	})

	t.Run(name+"/probabilities in range", func(t *testing.T) {
		train := Gaussians(200, 3, 2.0, 3)
		clf := factory()
		if err := clf.Fit(train); err != nil {
			t.Fatalf("Fit: %v", err)
		}
		for _, x := range train.X {
			p := clf.PredictProba(x)
			if p < 0 || p > 1 {
				t.Fatalf("PredictProba = %v out of [0,1]", p)
			}
		}
	})

	t.Run(name+"/deterministic", func(t *testing.T) {
		train := Gaussians(200, 3, 2.0, 4)
		a, b := factory(), factory()
		if err := a.Fit(train); err != nil {
			t.Fatalf("Fit: %v", err)
		}
		if err := b.Fit(train); err != nil {
			t.Fatalf("Fit: %v", err)
		}
		for _, x := range train.X[:50] {
			if a.PredictProba(x) != b.PredictProba(x) {
				t.Fatal("two fits on identical data disagree")
			}
		}
	})

	t.Run(name+"/single class positive", func(t *testing.T) {
		ds := &ml.Dataset{
			X: [][]float64{{1, 1}, {2, 2}, {3, 3}, {1, 2}},
			Y: []int{1, 1, 1, 1},
		}
		clf := factory()
		if err := clf.Fit(ds); err != nil {
			t.Fatalf("Fit(single class): %v", err)
		}
		if got := clf.Predict([]float64{2, 2}); got != 1 {
			t.Fatalf("single-positive-class model predicted %d, want 1", got)
		}
	})
}
