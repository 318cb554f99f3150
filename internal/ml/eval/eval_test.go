package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ml"
	"repro/internal/ml/mltest"
	"repro/internal/ml/tree"
)

func TestConfusionMetrics(t *testing.T) {
	var c Confusion
	// 3 TP, 1 FP, 4 TN, 2 FN
	for i := 0; i < 3; i++ {
		c.Add(true, true)
	}
	c.Add(false, true)
	for i := 0; i < 4; i++ {
		c.Add(false, false)
	}
	c.Add(true, false)
	c.Add(true, false)
	if c.Total() != 10 {
		t.Fatalf("Total = %d", c.Total())
	}
	if got := c.Precision(); got != 0.75 {
		t.Errorf("Precision = %v, want 0.75", got)
	}
	if got := c.Recall(); got != 0.6 {
		t.Errorf("Recall = %v, want 0.6", got)
	}
	wantF1 := 2 * 0.75 * 0.6 / (0.75 + 0.6)
	if got := c.F1(); math.Abs(got-wantF1) > 1e-12 {
		t.Errorf("F1 = %v, want %v", got, wantF1)
	}
	if got := c.Accuracy(); got != 0.7 {
		t.Errorf("Accuracy = %v, want 0.7", got)
	}
}

// constant predicts the same class for every row.
type constant int

func (constant) Fit(*ml.Dataset) error          { return nil }
func (constant) PredictProba([]float64) float64 { return 0 }
func (c constant) Predict([]float64) int        { return int(c) }

// TestEvaluateCells: a label or prediction is fraud iff it is 1, so
// every (y, p) pair lands in the cell its two booleans name. The int
// count this replaces filed everything outside {0,1}² under FN.
func TestEvaluateCells(t *testing.T) {
	cases := []struct {
		y, p int
		want Confusion
	}{
		{1, 1, Confusion{TP: 1}},
		{0, 1, Confusion{FP: 1}},
		{1, 0, Confusion{FN: 1}},
		{0, 0, Confusion{TN: 1}},
		{2, 1, Confusion{FP: 1}},
		{0, 2, Confusion{TN: 1}},
		{-1, -1, Confusion{TN: 1}},
		{1, 2, Confusion{FN: 1}},
	}
	for _, c := range cases {
		ds := &ml.Dataset{X: [][]float64{{0}}, Y: []int{c.y}}
		if got := Evaluate(constant(c.p), ds).Confusion; got != c.want {
			t.Errorf("truth %d pred %d: %+v, want %+v", c.y, c.p, got, c.want)
		}
	}
}

func TestMetricsDegenerate(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 || c.Accuracy() != 0 {
		t.Fatal("empty confusion should yield all-zero metrics")
	}
}

func TestStratifiedFoldsPreserveBalance(t *testing.T) {
	ds := mltest.Gaussians(1000, 2, 1, 1) // 50/50 classes
	rng := rand.New(rand.NewSource(2))
	folds, err := StratifiedFolds(ds, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, fold := range folds {
		pos := 0
		for _, i := range fold {
			if seen[i] {
				t.Fatal("row appears in two folds")
			}
			seen[i] = true
			pos += ds.Y[i]
		}
		rate := float64(pos) / float64(len(fold))
		if rate < 0.45 || rate > 0.55 {
			t.Errorf("fold positive rate %v, want ≈0.5", rate)
		}
	}
	if len(seen) != ds.Len() {
		t.Fatalf("folds cover %d rows, want %d", len(seen), ds.Len())
	}
}

func TestStratifiedFoldsErrors(t *testing.T) {
	ds := mltest.Gaussians(10, 1, 1, 1)
	rng := rand.New(rand.NewSource(1))
	if _, err := StratifiedFolds(ds, 1, rng); err == nil {
		t.Error("k=1 should error")
	}
	if _, err := StratifiedFolds(ds, 11, rng); err == nil {
		t.Error("k>n should error")
	}
}

func TestCrossValidate(t *testing.T) {
	ds := mltest.Gaussians(500, 3, 3, 3)
	rng := rand.New(rand.NewSource(4))
	perFold, pooled, err := CrossValidate(func() ml.Classifier {
		return tree.New(tree.Config{MaxDepth: 4})
	}, ds, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(perFold) != 5 {
		t.Fatalf("got %d folds", len(perFold))
	}
	if pooled.Accuracy < 0.9 {
		t.Fatalf("pooled CV accuracy %.3f on separable data", pooled.Accuracy)
	}
	if pooled.Confusion.Total() != ds.Len() {
		t.Fatalf("pooled predictions %d, want %d", pooled.Confusion.Total(), ds.Len())
	}
}

func TestSplitStratified(t *testing.T) {
	ds := mltest.Gaussians(1000, 2, 1, 5)
	rng := rand.New(rand.NewSource(6))
	train, test, err := Split(ds, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := train.Len() + test.Len(); got != ds.Len() {
		t.Fatalf("split loses rows: %d != %d", got, ds.Len())
	}
	if r := test.PositiveRate(); r < 0.45 || r > 0.55 {
		t.Errorf("test positive rate %v", r)
	}
	if test.Len() < 150 || test.Len() > 250 {
		t.Errorf("test size %d, want ≈200", test.Len())
	}
	if _, _, err := Split(ds, 0, rng); err == nil {
		t.Error("testFrac=0 should error")
	}
	if _, _, err := Split(ds, 1, rng); err == nil {
		t.Error("testFrac=1 should error")
	}
}

func TestEvaluate(t *testing.T) {
	ds := mltest.Gaussians(300, 2, 4, 7)
	clf := tree.New(tree.Config{MaxDepth: 4})
	if err := clf.Fit(ds); err != nil {
		t.Fatal(err)
	}
	m := Evaluate(clf, ds)
	if m.Accuracy < 0.95 {
		t.Fatalf("Evaluate accuracy %.3f", m.Accuracy)
	}
	if m.String() == "" {
		t.Error("empty String()")
	}
}

// Property: for any confusion counts, F1 lies between 0 and 1, and
// precision/recall bound it: min(P,R) <= F1-ish bounds hold (F1 is the
// harmonic mean so F1 <= min not required; but F1 <= max(P,R)).
func TestF1BoundsProperty(t *testing.T) {
	f := func(tp, fp, tn, fn uint8) bool {
		c := Confusion{TP: int(tp), FP: int(fp), TN: int(tn), FN: int(fn)}
		f1 := c.F1()
		p, r := c.Precision(), c.Recall()
		maxPR := math.Max(p, r)
		return f1 >= 0 && f1 <= 1 && f1 <= maxPR+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
