package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/lexicon"
	"repro/internal/ml"
	"repro/internal/ml/eval"
	"repro/internal/ml/gbt"
)

// FilterAblation runs Table VI twice, with and without the detector's
// stage-one rule filter (sales volume < 5, no positive signal), to
// measure the filter's effect on D1 metrics. A row's X is the number of
// items the filter removed.
func (l *Lab) FilterAblation(ctx context.Context) (fmt.Stringer, error) {
	items := l.D1().Dataset.Items
	res := &Sweep{Title: "Ablation — stage-one rule filter"}
	for _, disable := range []bool{false, true} {
		det, err := l.trainOnD0(nil, core.DetectorConfig{DisableRuleFilter: disable})
		if err != nil {
			return nil, err
		}
		dets, err := det.DetectContext(ctx, items, 0)
		if err != nil {
			return nil, err
		}
		filtered := countFiltered(dets)
		label := fmt.Sprintf("with filter (%d items removed):", filtered)
		if disable {
			label = fmt.Sprintf("%-32s", "without filter:")
		}
		res.Rows = append(res.Rows, SweepRow{label, float64(filtered), core.Evaluate(items, dets)})
	}
	return res, nil
}

// countFiltered is how many items the stage-one rule filter removed.
func countFiltered(dets []core.Detection) int {
	n := 0
	for _, d := range dets {
		if d.Filtered {
			n++
		}
	}
	return n
}

// featureGroups defines the Table II feature levels.
var featureGroups = []struct {
	name string
	cols []int
}{
	{"word level", []int{features.AveragePositiveNumber, features.AveragePosNegNumber, features.AverageNgramNumber, features.AverageNgramRatio}},
	{"semantic", []int{features.AverageSentiment}},
	{"structural", []int{features.UniqueWordRatio, features.AverageCommentEntropy, features.AverageCommentLength, features.SumCommentLength, features.SumPunctuationNumber, features.AveragePunctuationRatio}},
	{"word+semantic", []int{features.AveragePositiveNumber, features.AveragePosNegNumber, features.AverageNgramNumber, features.AverageNgramRatio, features.AverageSentiment}},
	{"all 11", nil}, // nil = every column
}

// FeatureGroupAblation compares classifiers trained on D0 and tested
// on D1 restricted to each feature group: word-level only, +semantic,
// +structural, all 11. A row's X is the number of features kept.
func (l *Lab) FeatureGroupAblation(context.Context) (fmt.Stringer, error) {
	det, err := l.detectorForFeatures()
	if err != nil {
		return nil, err
	}
	train := det.BuildMLDataset(l.D0().Dataset.Items, nil, 0)
	test := det.BuildMLDataset(l.D1().Dataset.Items, nil, 0)
	res := &Sweep{Title: "Ablation — feature groups (train D0, test D1)"}
	for _, g := range featureGroups {
		cols := g.cols
		if cols == nil {
			cols = make([]int, features.NumFeatures)
			for i := range cols {
				cols[i] = i
			}
		}
		clf := gbt.New(gbt.Config{Rounds: 120, MaxDepth: 4, LearningRate: 0.2, Seed: 11})
		if err := clf.Fit(project(train, cols)); err != nil {
			return nil, fmt.Errorf("feature ablation %s: %w", g.name, err)
		}
		res.Rows = append(res.Rows, SweepRow{
			Label: fmt.Sprintf("%-16s (%d features):", g.name, len(cols)), X: float64(len(cols)),
			Metrics: eval.Evaluate(clf, project(test, cols)),
		})
	}
	return res, nil
}

// project returns a dataset restricted to the given columns.
func project(ds *ml.Dataset, cols []int) *ml.Dataset {
	out := &ml.Dataset{Y: ds.Y}
	for _, c := range cols {
		out.FeatureNames = append(out.FeatureNames, ds.FeatureNames[c])
	}
	out.X = make([][]float64, len(ds.X))
	for i, row := range ds.X {
		r := make([]float64, len(cols))
		for j, c := range cols {
			r[j] = row[c]
		}
		out.X[i] = r
	}
	return out
}

// LexiconSizeAblation caps the oracle positive and negative lexicons at
// various sizes (a row's X) and re-runs train-on-D0/test-on-D1 —
// probing the paper's "we limit the sizes of both sets for computation
// efficiency" choice.
func (l *Lab) LexiconSizeAblation(ctx context.Context) (fmt.Stringer, error) {
	bank := l.Bank()
	a, err := l.Analyzer()
	if err != nil {
		return nil, err
	}
	res := &Sweep{Title: "Ablation — lexicon size cap"}
	for _, cap := range []int{25, 50, 100, 200} {
		pos, neg := head(bank.Positive, cap), head(bank.Negative, cap)
		capped := core.NewAnalyzerFromParts(a.Segmenter, a.Embedding, lexicon.NewSet(pos), lexicon.NewSet(neg), a.Sentiment)
		det, err := l.trainOnD0(capped, core.DetectorConfig{})
		if err != nil {
			return nil, err
		}
		m, err := evaluate(ctx, det, l.D1().Dataset.Items)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, SweepRow{fmt.Sprintf("cap %-4d:", cap), float64(cap), m})
	}
	return res, nil
}

// GBTAblation sweeps the boosted-tree hyperparameters the design fixes
// (depth, rounds, learning rate, subsampling): each variant is trained
// on D0 and tested on D1.
func (l *Lab) GBTAblation(context.Context) (fmt.Stringer, error) {
	det, err := l.detectorForFeatures()
	if err != nil {
		return nil, err
	}
	train := det.BuildMLDataset(l.D0().Dataset.Items, nil, 0)
	test := det.BuildMLDataset(l.D1().Dataset.Items, nil, 0)
	variants := []struct {
		label string
		cfg   gbt.Config
	}{
		{"default (120 trees, depth 4)", gbt.Config{Rounds: 120, MaxDepth: 4, LearningRate: 0.2, Seed: 11}},
		{"shallow (depth 2)", gbt.Config{Rounds: 120, MaxDepth: 2, LearningRate: 0.2, Seed: 11}},
		{"deep (depth 8)", gbt.Config{Rounds: 120, MaxDepth: 8, LearningRate: 0.2, Seed: 11}},
		{"few trees (20)", gbt.Config{Rounds: 20, MaxDepth: 4, LearningRate: 0.2, Seed: 11}},
		{"slow eta (0.05)", gbt.Config{Rounds: 120, MaxDepth: 4, LearningRate: 0.05, Seed: 11}},
		{"subsampled (0.5/0.5)", gbt.Config{Rounds: 120, MaxDepth: 4, LearningRate: 0.2, Subsample: 0.5, ColSample: 0.5, Seed: 11}},
	}
	res := &Sweep{Title: "Ablation — boosted-tree hyperparameters (train D0, test D1)"}
	for _, v := range variants {
		clf := gbt.New(v.cfg)
		if err := clf.Fit(train); err != nil {
			return nil, fmt.Errorf("gbt ablation %s: %w", v.label, err)
		}
		res.Rows = append(res.Rows, SweepRow{Label: fmt.Sprintf("%-30s", v.label), Metrics: eval.Evaluate(clf, test)})
	}
	return res, nil
}
