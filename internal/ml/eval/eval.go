// Package eval provides the evaluation machinery used throughout the
// paper's experiments: precision/recall/F-score/accuracy with confusion
// counts, stratified k-fold cross-validation (Table III uses standard
// five-fold CV), and stratified train/test splitting.
package eval

import (
	"fmt"
	"math/rand"

	"repro/internal/ml"
)

// Confusion holds binary confusion-matrix counts (positive = fraud).
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one (truth, predicted) pair; true is fraud.
func (c *Confusion) Add(truth, pred bool) {
	switch {
	case truth && pred:
		c.TP++
	case pred:
		c.FP++
	case truth:
		c.FN++
	default:
		c.TN++
	}
}

// Total returns the number of recorded pairs.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Precision returns TP/(TP+FP); 0 when nothing was predicted positive.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN); 0 when there are no positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy returns (TP+TN)/total.
func (c Confusion) Accuracy() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(t)
}

// Metrics bundles the headline numbers the paper's tables report.
type Metrics struct {
	Precision, Recall, F1, Accuracy float64
	Confusion                       Confusion
}

// String formats metrics the way the paper's tables print them.
func (m Metrics) String() string {
	return fmt.Sprintf("P=%.2f R=%.2f F=%.2f Acc=%.2f", m.Precision, m.Recall, m.F1, m.Accuracy)
}

// FromConfusion derives Metrics from confusion counts.
func FromConfusion(c Confusion) Metrics {
	return Metrics{
		Precision: c.Precision(),
		Recall:    c.Recall(),
		F1:        c.F1(),
		Accuracy:  c.Accuracy(),
		Confusion: c,
	}
}

// Evaluate predicts every row of test with clf and returns the metrics.
func Evaluate(clf ml.Classifier, test *ml.Dataset) Metrics {
	var c Confusion
	for i, x := range test.X {
		c.Add(test.Y[i] == 1, clf.Predict(x) == 1)
	}
	return FromConfusion(c)
}

// StratifiedFolds partitions row indices into k folds preserving the
// class balance of ds. Folds are disjoint and cover every row.
func StratifiedFolds(ds *ml.Dataset, k int, rng *rand.Rand) ([][]int, error) {
	if k < 2 {
		return nil, fmt.Errorf("eval: need k >= 2 folds, got %d", k)
	}
	if ds.Len() < k {
		return nil, fmt.Errorf("eval: %d rows cannot fill %d folds", ds.Len(), k)
	}
	var pos, neg []int
	for i, y := range ds.Y {
		if y == 1 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	folds := make([][]int, k)
	for i, idx := range pos {
		folds[i%k] = append(folds[i%k], idx)
	}
	for i, idx := range neg {
		folds[i%k] = append(folds[i%k], idx)
	}
	return folds, nil
}

// CrossValidate runs k-fold cross-validation: for each fold, train a
// fresh classifier from factory on the other folds and evaluate on the
// held-out fold. It returns per-fold metrics and the pooled metrics
// over all held-out predictions.
func CrossValidate(factory func() ml.Classifier, ds *ml.Dataset, k int, rng *rand.Rand) ([]Metrics, Metrics, error) {
	folds, err := StratifiedFolds(ds, k, rng)
	if err != nil {
		return nil, Metrics{}, err
	}
	perFold := make([]Metrics, 0, k)
	var pooled Confusion
	for f := 0; f < k; f++ {
		var trainIdx []int
		for g := 0; g < k; g++ {
			if g != f {
				trainIdx = append(trainIdx, folds[g]...)
			}
		}
		clf := factory()
		if err := clf.Fit(ds.Subset(trainIdx)); err != nil {
			return nil, Metrics{}, fmt.Errorf("eval: fold %d: %w", f, err)
		}
		var c Confusion
		for _, i := range folds[f] {
			c.Add(ds.Y[i] == 1, clf.Predict(ds.X[i]) == 1)
		}
		perFold = append(perFold, FromConfusion(c))
		pooled.TP += c.TP
		pooled.FP += c.FP
		pooled.TN += c.TN
		pooled.FN += c.FN
	}
	return perFold, FromConfusion(pooled), nil
}

// Split returns a stratified train/test split with the given test
// fraction (0 < testFrac < 1).
func Split(ds *ml.Dataset, testFrac float64, rng *rand.Rand) (train, test *ml.Dataset, err error) {
	if testFrac <= 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("eval: test fraction %v out of (0,1)", testFrac)
	}
	var pos, neg []int
	for i, y := range ds.Y {
		if y == 1 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	cutP := int(float64(len(pos)) * testFrac)
	cutN := int(float64(len(neg)) * testFrac)
	testIdx := append(append([]int(nil), pos[:cutP]...), neg[:cutN]...)
	trainIdx := append(append([]int(nil), pos[cutP:]...), neg[cutN:]...)
	return ds.Subset(trainIdx), ds.Subset(testIdx), nil
}
