package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/lexicon"
	"repro/internal/ml"
	"repro/internal/ml/eval"
	"repro/internal/ml/gbt"
)

// FilterAblationResult measures the effect of the detector's stage-one
// rule filter (sales volume < 5, no positive signal) on D1 metrics.
type FilterAblationResult struct {
	WithFilter    eval.Metrics
	WithoutFilter eval.Metrics
	Filtered      int
}

// FilterAblation runs Table VI twice: with and without the rule filter.
func (l *Lab) FilterAblation() (*FilterAblationResult, error) {
	run := func(disable bool) (eval.Metrics, int, error) {
		det, err := l.trainOnD0(nil, core.DetectorConfig{DisableRuleFilter: disable})
		if err != nil {
			return eval.Metrics{}, 0, err
		}
		items := l.D1().Dataset.Items
		dets, err := det.Detect(items, l.cfg.Workers)
		if err != nil {
			return eval.Metrics{}, 0, err
		}
		var c eval.Confusion
		filtered := 0
		for i, d := range dets {
			if d.Filtered {
				filtered++
			}
			truth := 0
			if items[i].Label.IsFraud() {
				truth = 1
			}
			pred := 0
			if d.IsFraud {
				pred = 1
			}
			c.Add(truth, pred)
		}
		return eval.FromConfusion(c), filtered, nil
	}
	with, filtered, err := run(false)
	if err != nil {
		return nil, err
	}
	without, _, err := run(true)
	if err != nil {
		return nil, err
	}
	return &FilterAblationResult{WithFilter: with, WithoutFilter: without, Filtered: filtered}, nil
}

// String prints the filter ablation.
func (r *FilterAblationResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation — stage-one rule filter\n")
	fmt.Fprintf(&b, "  with filter (%d items removed): %s\n", r.Filtered, r.WithFilter)
	fmt.Fprintf(&b, "  without filter:                  %s\n", r.WithoutFilter)
	return b.String()
}

// FeatureGroupRow is one feature-subset result.
type FeatureGroupRow struct {
	Group   string
	Columns []int
	Metrics eval.Metrics
}

// FeatureGroupAblationResult compares detectors trained on feature
// subsets: word-level only, +semantic, +structural, all 11.
type FeatureGroupAblationResult struct {
	Rows []FeatureGroupRow
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

// FeatureGroupAblation trains on D0 and tests on D1 restricted to each
// feature group.
func (l *Lab) FeatureGroupAblation() (*FeatureGroupAblationResult, error) {
	det, err := l.detectorForFeatures()
	if err != nil {
		return nil, err
	}
	train := det.BuildMLDataset(l.D0().Dataset.Items, nil, l.cfg.Workers)
	test := det.BuildMLDataset(l.D1().Dataset.Items, nil, l.cfg.Workers)

	res := &FeatureGroupAblationResult{}
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
		m := eval.Evaluate(clf, project(test, cols))
		res.Rows = append(res.Rows, FeatureGroupRow{Group: g.name, Columns: cols, Metrics: m})
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

// String prints the feature-group ablation.
func (r *FeatureGroupAblationResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation — feature groups (train D0, test D1)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-16s (%d features): %s\n", row.Group, len(row.Columns), row.Metrics)
	}
	return b.String()
}

// LexiconSizeRow is one lexicon-cap result.
type LexiconSizeRow struct {
	Cap     int
	Metrics eval.Metrics
}

// LexiconSizeAblationResult measures detection quality as the positive
// and negative lexicons are truncated — probing the paper's "we limit
// the sizes of both sets for computation efficiency" choice.
type LexiconSizeAblationResult struct {
	Rows []LexiconSizeRow
}

// LexiconSizeAblation caps the oracle lexicons at various sizes and
// re-runs train-on-D0/test-on-D1.
func (l *Lab) LexiconSizeAblation() (*LexiconSizeAblationResult, error) {
	bank := l.Bank()
	a, err := l.Analyzer()
	if err != nil {
		return nil, err
	}
	res := &LexiconSizeAblationResult{}
	for _, cap := range []int{25, 50, 100, 200} {
		pos := bank.Positive
		if len(pos) > cap {
			pos = pos[:cap]
		}
		neg := bank.Negative
		if len(neg) > cap {
			neg = neg[:cap]
		}
		capped := core.NewAnalyzerFromParts(a.Segmenter, a.Embedding, lexicon.NewSet(pos), lexicon.NewSet(neg), a.Sentiment)
		det, err := l.trainOnD0(capped, core.DetectorConfig{})
		if err != nil {
			return nil, err
		}
		items := l.D1().Dataset.Items
		dets, err := det.Detect(items, l.cfg.Workers)
		if err != nil {
			return nil, err
		}
		var c eval.Confusion
		for i, d := range dets {
			truth := 0
			if items[i].Label.IsFraud() {
				truth = 1
			}
			pred := 0
			if d.IsFraud {
				pred = 1
			}
			c.Add(truth, pred)
		}
		res.Rows = append(res.Rows, LexiconSizeRow{Cap: cap, Metrics: eval.FromConfusion(c)})
	}
	return res, nil
}

// String prints the lexicon-size ablation.
func (r *LexiconSizeAblationResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation — lexicon size cap\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  cap %-4d: %s\n", row.Cap, row.Metrics)
	}
	return b.String()
}

// GBTConfigRow is one hyperparameter setting's result.
type GBTConfigRow struct {
	Label   string
	Metrics eval.Metrics
}

// GBTAblationResult sweeps the boosted-tree hyperparameters the design
// fixes (depth, rounds, learning rate, subsampling).
type GBTAblationResult struct {
	Rows []GBTConfigRow
}

// GBTAblation trains variants on D0 and tests on D1.
func (l *Lab) GBTAblation() (*GBTAblationResult, error) {
	det, err := l.detectorForFeatures()
	if err != nil {
		return nil, err
	}
	train := det.BuildMLDataset(l.D0().Dataset.Items, nil, l.cfg.Workers)
	test := det.BuildMLDataset(l.D1().Dataset.Items, nil, l.cfg.Workers)
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
	res := &GBTAblationResult{}
	for _, v := range variants {
		clf := gbt.New(v.cfg)
		if err := clf.Fit(train); err != nil {
			return nil, fmt.Errorf("gbt ablation %s: %w", v.label, err)
		}
		res.Rows = append(res.Rows, GBTConfigRow{Label: v.label, Metrics: eval.Evaluate(clf, test)})
	}
	return res, nil
}

// String prints the GBT hyperparameter ablation.
func (r *GBTAblationResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation — boosted-tree hyperparameters (train D0, test D1)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-30s %s\n", row.Label, row.Metrics)
	}
	return b.String()
}
