package gbt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ml"
	"repro/internal/ml/mltest"
)

func TestConformance(t *testing.T) {
	mltest.Conformance(t, "gbt", func() ml.Classifier {
		return New(Config{Rounds: 40, MaxDepth: 3})
	})
}

func TestLearnsXOR(t *testing.T) {
	ds := mltest.XOR(400, 1)
	clf := New(Config{Rounds: 30, MaxDepth: 3})
	if err := clf.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(clf, ds); acc < 0.98 {
		t.Fatalf("XOR accuracy %.3f, want >= 0.98", acc)
	}
}

func TestNumTrees(t *testing.T) {
	ds := mltest.Gaussians(100, 2, 2, 2)
	clf := New(Config{Rounds: 17})
	if err := clf.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if clf.NumTrees() != 17 {
		t.Fatalf("NumTrees = %d, want 17", clf.NumTrees())
	}
}

func TestFeatureImportanceIdentifiesSignal(t *testing.T) {
	// Feature 0 carries all the signal; features 1-2 are noise.
	ds := mltest.Gaussians(400, 1, 3, 3)
	noise := mltest.Gaussians(400, 2, 0, 4)
	for i := range ds.X {
		ds.X[i] = append(ds.X[i], noise.X[i]...)
	}
	ds.FeatureNames = []string{"signal", "noise1", "noise2"}
	clf := New(Config{Rounds: 30, MaxDepth: 3})
	if err := clf.Fit(ds); err != nil {
		t.Fatal(err)
	}
	imp, err := clf.FeatureImportance()
	if err != nil {
		t.Fatal(err)
	}
	if imp[0].Feature != "signal" {
		t.Fatalf("most important feature = %q, want signal (%v)", imp[0].Feature, imp)
	}
	if imp[0].Splits == 0 {
		t.Fatal("signal feature has zero splits")
	}
}

func TestFeatureImportanceBeforeFit(t *testing.T) {
	clf := New(Config{})
	if _, err := clf.FeatureImportance(); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("err = %v, want ErrNotFitted", err)
	}
}

func TestSubsampleStillLearns(t *testing.T) {
	ds := mltest.Gaussians(600, 4, 3, 5)
	clf := New(Config{Rounds: 60, MaxDepth: 3, Subsample: 0.5, ColSample: 0.5, Seed: 9})
	if err := clf.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(clf, ds); acc < 0.95 {
		t.Fatalf("subsampled accuracy %.3f, want >= 0.95", acc)
	}
}

func TestGammaPrunesSplits(t *testing.T) {
	ds := mltest.Gaussians(300, 3, 0.2, 6) // weak signal
	loose := New(Config{Rounds: 20, MaxDepth: 3, Gamma: 0})
	tight := New(Config{Rounds: 20, MaxDepth: 3, Gamma: 1e6})
	if err := loose.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if err := tight.Fit(ds); err != nil {
		t.Fatal(err)
	}
	looseSplits, tightSplits := 0, 0
	li, _ := loose.FeatureImportance()
	ti, _ := tight.FeatureImportance()
	for i := range li {
		looseSplits += li[i].Splits
		tightSplits += ti[i].Splits
	}
	if tightSplits != 0 {
		t.Fatalf("huge gamma should forbid all splits, got %d", tightSplits)
	}
	if looseSplits == 0 {
		t.Fatal("zero gamma produced no splits at all")
	}
}

func TestBaseScoreMatchesPrior(t *testing.T) {
	// With zero rounds of effective learning (gamma huge → all stumps
	// are single leaves with weight -G/(H+λ) ≈ 0 on a balanced set),
	// probability should start near the class prior.
	ds := mltest.Gaussians(400, 2, 0, 7) // no signal, balanced
	clf := New(Config{Rounds: 1, MaxDepth: 1, Gamma: 1e9})
	if err := clf.Fit(ds); err != nil {
		t.Fatal(err)
	}
	p := clf.PredictProba(ds.X[0])
	if math.Abs(p-0.5) > 0.05 {
		t.Fatalf("prior probability = %v, want ≈0.5", p)
	}
}

// Property: margins are monotone in the number of trees used in the
// sense that probability stays within [0,1] and prediction is the
// thresholded probability.
func TestPredictConsistencyProperty(t *testing.T) {
	ds := mltest.Gaussians(200, 3, 2, 8)
	clf := New(Config{Rounds: 20, MaxDepth: 3})
	if err := clf.Fit(ds); err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) ||
			math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsInf(c, 0) {
			return true
		}
		x := []float64{a, b, c}
		p := clf.PredictProba(x)
		if p < 0 || p > 1 {
			return false
		}
		return clf.Predict(x) == ml.Threshold(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Rounds != 100 || cfg.MaxDepth != 4 || cfg.Lambda != 1 || cfg.Subsample != 1 {
		t.Fatalf("defaults = %+v", cfg)
	}
	neg := Config{Lambda: -1}.withDefaults()
	if neg.Lambda != 0 {
		t.Fatalf("negative lambda should clamp to 0, got %v", neg.Lambda)
	}
}

func TestParallelSplitSearchMatchesSerial(t *testing.T) {
	ds := mltest.Gaussians(1200, 8, 1.5, 13)
	serial := New(Config{Rounds: 25, MaxDepth: 4, Seed: 3})
	parallel := New(Config{Rounds: 25, MaxDepth: 4, Seed: 3, Workers: 4})
	if err := serial.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Fit(ds); err != nil {
		t.Fatal(err)
	}
	for _, x := range ds.X {
		if serial.PredictProba(x) != parallel.PredictProba(x) {
			t.Fatal("parallel split search changed the model")
		}
	}
	si, _ := serial.FeatureImportance()
	pi, _ := parallel.FeatureImportance()
	for i := range si {
		if si[i] != pi[i] {
			t.Fatal("parallel split search changed feature importance")
		}
	}
}

func TestDecisionPathFeatures(t *testing.T) {
	ds := mltest.Gaussians(400, 3, 3, 14)
	ds.FeatureNames = []string{"a", "b", "c"}
	clf := New(Config{Rounds: 20, MaxDepth: 3, Seed: 4})
	if err := clf.Fit(ds); err != nil {
		t.Fatal(err)
	}
	paths, err := clf.DecisionPathFeatures(ds.X[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("entries = %d, want 3", len(paths))
	}
	total := 0
	for _, p := range paths {
		total += p.Splits
	}
	if total == 0 {
		t.Fatal("no internal nodes traversed")
	}
	// Sorted descending.
	for i := 1; i < len(paths); i++ {
		if paths[i].Splits > paths[i-1].Splits {
			t.Fatal("not sorted by usage")
		}
	}
	// Unfitted model errors.
	if _, err := New(Config{}).DecisionPathFeatures(ds.X[0]); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("err = %v, want ErrNotFitted", err)
	}
}

func TestPredictProbaAtStaged(t *testing.T) {
	ds := mltest.Gaussians(300, 3, 3, 15)
	clf := New(Config{Rounds: 30, MaxDepth: 3, Seed: 5})
	if err := clf.Fit(ds); err != nil {
		t.Fatal(err)
	}
	x := ds.X[0]
	// n = NumTrees equals the plain prediction; n beyond clamps, and
	// so does n below zero.
	if clf.PredictProbaAt(x, clf.NumTrees()) != clf.PredictProba(x) {
		t.Fatal("full staged prediction differs from PredictProba")
	}
	if clf.PredictProbaAt(x, 1000) != clf.PredictProba(x) {
		t.Fatal("overlong stage not clamped")
	}
	if clf.PredictProbaAt(x, -1) != clf.PredictProbaAt(x, 0) {
		t.Fatal("negative stage not clamped to the prior")
	}
	// n = 0 is the prior.
	p0 := clf.PredictProbaAt(x, 0)
	if p0 < 0 || p0 > 1 {
		t.Fatalf("stage-0 prediction %v", p0)
	}
}

var benchClassifier *Classifier

// BenchmarkFit fits at the detector's shape: core.DefaultGBTConfig()'s
// values, copied since gbt cannot import core, over 11 features that
// are, like the detector's counts and ratios, full of ties. Set -cpu
// to at least 8 for the workers=8 case to time parallel split search.
func BenchmarkFit(b *testing.B) {
	cfg := Config{Rounds: 200, MaxDepth: 5, LearningRate: 0.15, Lambda: 4, MinChildWeight: 6, Subsample: 0.9, ColSample: 0.3, Seed: 11}
	for _, rows := range []int{1000, 10000} {
		rng := rand.New(rand.NewSource(9))
		ds := &ml.Dataset{}
		for i := 0; i < rows; i++ {
			y := i % 2
			x := make([]float64, 11)
			for j := range x {
				scale := []float64{1, 10, 100}[j%3]
				x[j] = math.Round((rng.NormFloat64()+0.8*float64(y))*scale) / scale
			}
			ds.X = append(ds.X, x)
			ds.Y = append(ds.Y, y)
		}
		for _, workers := range []int{0, 8} {
			cfg.Workers = workers
			b.Run(fmt.Sprintf("rows=%d/workers=%d", rows, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					clf := New(cfg)
					if err := clf.Fit(ds); err != nil {
						b.Fatal(err)
					}
					benchClassifier = clf
				}
			})
		}
	}
}
