// Package ml defines the shared machine-learning types used by CATS'
// detector: the numeric dataset representation and the binary
// Classifier interface implemented by the six candidate models the
// paper compares in Table III (XGBoost-style gradient boosted trees,
// linear SVM, AdaBoost, a neural network, a decision tree and Naive
// Bayes — see the ml/* subpackages).
package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Dataset is a dense numeric design matrix with binary labels
// (1 = fraud item, 0 = normal item).
type Dataset struct {
	X            [][]float64
	Y            []int
	FeatureNames []string
}

// ErrEmptyDataset is returned by Fit when there are no rows.
var ErrEmptyDataset = errors.New("ml: empty dataset")

// Validate checks structural consistency: non-empty, rectangular,
// finite feature values, and label/row count agreement. Classifiers
// call it at the top of Fit.
func (d *Dataset) Validate() error {
	if d == nil || len(d.X) == 0 {
		return ErrEmptyDataset
	}
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("ml: %d rows but %d labels", len(d.X), len(d.Y))
	}
	w := len(d.X[0])
	if w == 0 {
		return errors.New("ml: zero-width rows")
	}
	for i, row := range d.X {
		if len(row) != w {
			return fmt.Errorf("ml: row %d has %d features, want %d", i, len(row), w)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ml: row %d feature %s is %v", i, d.featureName(j), v)
			}
		}
	}
	for i, y := range d.Y {
		if y != 0 && y != 1 {
			return fmt.Errorf("ml: label %d at row %d is not binary", y, i)
		}
	}
	return nil
}

// featureName names feature j for an error: its index, and its name
// when the dataset has one.
func (d *Dataset) featureName(j int) string {
	if j < len(d.FeatureNames) {
		return fmt.Sprintf("%d (%s)", j, d.FeatureNames[j])
	}
	return fmt.Sprint(j)
}

// NumFeatures returns the width of the design matrix (0 if empty).
func (d *Dataset) NumFeatures() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.X) }

// Subset returns a new Dataset containing the given row indices. Rows
// are shared (not copied); callers must not mutate them.
func (d *Dataset) Subset(idx []int) *Dataset {
	sub := &Dataset{
		X:            make([][]float64, len(idx)),
		Y:            make([]int, len(idx)),
		FeatureNames: d.FeatureNames,
	}
	for i, j := range idx {
		sub.X[i] = d.X[j]
		sub.Y[i] = d.Y[j]
	}
	return sub
}

// Shuffle permutes rows in place using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(len(d.X), func(i, j int) {
		d.X[i], d.X[j] = d.X[j], d.X[i]
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	})
}

// PositiveRate returns the fraction of rows labeled 1.
func (d *Dataset) PositiveRate() float64 {
	if len(d.Y) == 0 {
		return 0
	}
	n := 0
	for _, y := range d.Y {
		if y == 1 {
			n++
		}
	}
	return float64(n) / float64(len(d.Y))
}

// Classifier is a binary classifier over dense feature vectors.
// Implementations must be usable for prediction from multiple
// goroutines after Fit returns.
type Classifier interface {
	// Fit trains the model. It may retain references to the dataset's
	// rows but must not mutate them.
	Fit(ds *Dataset) error
	// PredictProba returns P(y=1|x) in [0, 1].
	PredictProba(x []float64) float64
	// Predict returns the hard label under a 0.5 threshold.
	Predict(x []float64) int
}

// Threshold converts a probability into a hard label at 0.5, the
// convention every classifier in this repo uses for Predict.
func Threshold(p float64) int {
	if p >= 0.5 {
		return 1
	}
	return 0
}

// Standardizer performs per-feature z-score normalization. The margin
// classifiers (SVM, MLP) are scale sensitive, so they embed one; tree
// models do not need it.
type Standardizer struct {
	Mean, Std []float64
}

// FitStandardizer estimates means and standard deviations from rows.
// Zero-variance features get Std 1 so transformation is a no-op shift.
func FitStandardizer(rows [][]float64) *Standardizer {
	if len(rows) == 0 {
		return &Standardizer{}
	}
	w := len(rows[0])
	s := &Standardizer{Mean: make([]float64, w), Std: make([]float64, w)}
	for _, r := range rows {
		for j, v := range r {
			s.Mean[j] += v
		}
	}
	n := float64(len(rows))
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, r := range rows {
		for j, v := range r {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] == 0 {
			s.Std[j] = 1
		}
	}
	return s
}

// Transform returns the standardized copy of x.
func (s *Standardizer) Transform(x []float64) []float64 {
	if len(s.Mean) == 0 {
		return append([]float64(nil), x...)
	}
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return out
}

// TransformAll standardizes every row.
func (s *Standardizer) TransformAll(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = s.Transform(r)
	}
	return out
}
