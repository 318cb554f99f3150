package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/ecom"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/ml/eval"
	"repro/internal/ml/gbt"
	"repro/internal/obs"
	"repro/internal/par"
)

// DefaultGBTConfig is the boosted-tree configuration every detector is
// built with; Table III's xgboost row (internal/experiments) reads it
// from here, so the compared model cannot drift from the served one.
// Column subsampling forces split mass across all 11 features instead
// of letting one dominant feature absorb every split (the paper's
// Fig 7 shows every feature contributing).
func DefaultGBTConfig() gbt.Config {
	return gbt.Config{Rounds: 200, MaxDepth: 5, LearningRate: 0.15, Lambda: 4, MinChildWeight: 6, Subsample: 0.9, ColSample: 0.3, Seed: 11}
}

// DetectorConfig configures the detector.
type DetectorConfig struct {
	// MinSalesVolume is the rule filter's sales cutoff ("filtering the
	// e-commerce items, of which the sales volumes are less than 5");
	// <= 0 means 5.
	MinSalesVolume int
	// DisableRuleFilter turns stage one off (for ablation).
	DisableRuleFilter bool
	// Threshold is the fraud probability cutoff; <= 0 means 0.5.
	Threshold float64
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.MinSalesVolume <= 0 {
		c.MinSalesVolume = 5
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.5
	}
	return c
}

// Detector is CATS' two-stage detector: a rule filter followed by a
// trained boosted-tree classifier over the 11 features.
type Detector struct {
	cfg       DetectorConfig
	extractor *features.Extractor
	clf       *gbt.Classifier
	trained   bool

	// trainSample is a bounded, deterministic sample of training
	// feature vectors, kept as the drift baseline for monitoring
	// deployments (see internal/service's /v1/drift).
	trainSample [][]float64

	// m is the tenant-labeled pipeline instrumentation this detector
	// reports into; SetMetricsTenant rebinds it. Never nil.
	m *pipelineMetrics
}

// trainSampleCap bounds the retained drift baseline.
const trainSampleCap = 4096

// NewDetector builds an untrained detector using the analyzer's
// feature extractor.
func NewDetector(a *Analyzer, cfg DetectorConfig) *Detector {
	return &Detector{cfg: cfg.withDefaults(), extractor: a.Extractor(), clf: gbt.New(DefaultGBTConfig()), m: pipelineByTenant.For(DefaultTenant)}
}

// SetMetricsTenant rebinds the detector's cats_pipeline_* metrics to
// the given tenant label (empty means DefaultTenant). The multi-tenant
// registry calls this once per loaded model, before the detector serves
// traffic; it is not safe to call concurrently with detection.
func (d *Detector) SetMetricsTenant(tenant string) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	d.m = pipelineByTenant.For(tenant)
}

// Extractor exposes the detector's feature extractor.
func (d *Detector) Extractor() *features.Extractor { return d.extractor }

// Config returns the detector's resolved configuration — what a
// retrained challenger must copy so promotion changes the model, never
// the thresholds.
func (d *Detector) Config() DetectorConfig { return d.cfg }

// Model exposes the boosted-tree model (feature importance for Fig 7,
// staged prediction, decision paths).
func (d *Detector) Model() *gbt.Classifier { return d.clf }

// Classifier is Model behind the ml.Classifier interface. It exists
// only because bench/probes.go, which a PR may not edit, type-asserts
// its result; everything in this module calls Model.
func (d *Detector) Classifier() ml.Classifier { return d.clf }

// PassesFilter reports whether the item survives stage one: sales
// volume at least MinSalesVolume and at least one positive word or
// positive 2-gram in its comments.
func (d *Detector) PassesFilter(item *ecom.Item) bool {
	return d.readsText(item) && (d.cfg.DisableRuleFilter || d.extractor.HasPositiveSignal(item))
}

// BuildMLDataset extracts features for every item into an ml.Dataset
// with binary labels (fraud = 1). texts is nil or stands in for the
// items' Comments (see analyzeOne). workers <= 0 uses GOMAXPROCS.
func (d *Detector) BuildMLDataset(items []ecom.Item, texts [][]string, workers int) *ml.Dataset {
	X := d.extractor.ExtractDataset(items, texts, workers)
	y := make([]int, len(items))
	for i := range items {
		if items[i].Label.IsFraud() {
			y[i] = 1
		}
	}
	return &ml.Dataset{X: X, Y: y, FeatureNames: features.Names}
}

// ErrNotTrained is returned by detection before Train.
var ErrNotTrained = errors.New("core: detector not trained")

// Explain reports how often each feature was consulted on the item's
// decision paths through the boosted-tree ensemble, most-used first —
// the reviewer-facing "why was this item flagged" view.
func (d *Detector) Explain(item *ecom.Item) ([]gbt.Importance, error) {
	if !d.trained {
		return nil, ErrNotTrained
	}
	return d.ExplainVector(d.extractor.Vector(item))
}

// ExplainVector is Explain for a feature vector the caller already has
// (e.g. from DetectItemWithFeatures), avoiding a second extraction.
func (d *Detector) ExplainVector(v []float64) ([]gbt.Importance, error) {
	if !d.trained {
		return nil, ErrNotTrained
	}
	return d.clf.DecisionPathFeatures(v)
}

// Train fits the classifier on a labeled dataset (the paper pre-trains
// on D0). The rule filter is not applied to training data: D0 is
// already curated.
func (d *Detector) Train(ds *ecom.Dataset, workers int) error {
	return d.TrainTexts(ds.Items, nil, workers)
}

// TrainTexts is Train with the items' texts (nil, or see analyzeOne).
func (d *Detector) TrainTexts(items []ecom.Item, texts [][]string, workers int) error {
	mlds := d.BuildMLDataset(items, texts, workers)
	if err := d.clf.Fit(mlds); err != nil {
		return fmt.Errorf("core: train detector: %w", err)
	}
	// Keep a strided sample of the training features as the drift
	// baseline (deterministic: every k-th row).
	stride := (len(mlds.X) + trainSampleCap - 1) / trainSampleCap
	if stride < 1 {
		stride = 1
	}
	d.trainSample = d.trainSample[:0]
	for i := 0; i < len(mlds.X); i += stride {
		d.trainSample = append(d.trainSample, mlds.X[i])
	}
	d.trained = true
	return nil
}

// TrainingSample returns the detector's drift baseline: a bounded
// sample of training feature vectors. Callers must not mutate the
// returned rows.
func (d *Detector) TrainingSample() [][]float64 { return d.trainSample }

// Detection is one scored item.
type Detection struct {
	ItemID   string
	Score    float64 // P(fraud)
	IsFraud  bool    // Score >= Threshold
	Filtered bool    // removed by the stage-one rule filter
}

// Evaluate folds the detections of labelled items into P/R/F: dets[i]
// is items[i]'s, and an item the rule filter removed is a predicted
// normal like any other IsFraud == false. The one statement of that
// convention, for the experiments and the trainer's promotion gate alike.
func Evaluate(items []ecom.Item, dets []Detection) eval.Metrics {
	var c eval.Confusion
	for i := range dets {
		c.Add(items[i].Label.IsFraud(), dets[i].IsFraud)
	}
	return eval.FromConfusion(c)
}

// readsText is the sales-cutoff half of the stage-one rule filter, the
// half that needs no text: an item under the cutoff is filtered whatever
// its comments say. analyzeOne asks it before any text is touched, and
// DetectStream's projected read, which then never materializes it.
func (d *Detector) readsText(item *ecom.Item) bool {
	return d.cfg.DisableRuleFilter || item.SalesVolume >= d.cfg.MinSalesVolume
}

// analyzeOne fuses filter and feature extraction for one item from a
// single pooled analysis pass per comment. Items readsText refuses cost
// no segmentation at all; the others are analyzed once and the same
// artifact answers both the positive-signal rule and the 11-feature
// vector. needScore reports whether the item survived stage one and
// awaits a classifier score.
//
// The returned vector is nil when features were never computed (the
// item fell to the sales cutoff); filtered-by-signal items still return
// their vector since the analysis had to run to prove the absence of a
// positive signal.
//
// texts stands in for the Comments of an item from a projected read
// (dataset.Reader.NextTexts), which has none; it is nil otherwise, and
// may be for an item readsText refuses.
func (d *Detector) analyzeOne(item *ecom.Item, texts []string) (det Detection, v []float64, needScore bool) {
	det = Detection{ItemID: item.ID}
	if !d.readsText(item) {
		d.m.itemsFilteredSales.Inc()
		det.Filtered = true
		return det, nil, false
	}
	var hasPositive bool
	comments := len(item.Comments)
	sp := obs.StartSpan(d.m.stageAnalyze)
	if comments > 0 {
		v, hasPositive = d.extractor.VectorSignal(item)
	} else {
		comments = len(texts)
		v, hasPositive = d.extractor.VectorSignalTexts(texts)
	}
	sp.End()
	d.m.commentsAnalyzed.Add(uint64(comments))
	if !d.cfg.DisableRuleFilter && !hasPositive {
		d.m.itemsFilteredSignal.Inc()
		det.Filtered = true
		return det, v, false
	}
	d.m.itemsScored.Inc()
	return det, v, true
}

// scoreOne is analyzeOne plus the classifier score — the single-item
// detection path.
func (d *Detector) scoreOne(item *ecom.Item) (Detection, []float64) {
	det, v, need := d.analyzeOne(item, nil)
	if need {
		sp := obs.StartSpan(d.m.stageScore)
		score := d.clf.PredictProba(v)
		sp.End()
		d.applyScore(&det, score)
	}
	return det, v
}

// scoreBatch analyzes items in parallel, preserving item order, then
// scores the survivors. Analysis workers claim items from a shared
// cursor (par.For), each writing only its own slots of the output
// slices; the scoring phase (scorePending) then runs
// gbt.PredictProbaBatch over the survivors, split across the same
// worker budget. Scores are bit-identical to scoreOne.
//
// texts is nil or, for items of a projected read, their comments'
// contents (see analyzeOne). workers <= 0 uses GOMAXPROCS. Cancellation
// of ctx stops workers from claiming new items and returns its error.
func (d *Detector) scoreBatch(ctx context.Context, items []ecom.Item, texts [][]string, workers int) ([]Detection, [][]float64, error) {
	if !d.trained {
		return nil, nil, ErrNotTrained
	}
	d.m.batches.Inc()
	d.m.batchSize.Observe(float64(len(items)))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	dets := make([]Detection, len(items))
	X := make([][]float64, len(items))
	needScore := make([]bool, len(items))
	err := par.For(ctx, len(items), workers, func(i int) {
		var t []string
		if texts != nil {
			t = texts[i]
		}
		dets[i], X[i], needScore[i] = d.analyzeOne(&items[i], t)
	})
	if err != nil {
		return nil, nil, err
	}
	n := 0
	for _, need := range needScore {
		if need {
			n++
		}
	}
	pending := make([]int, 0, n) // indices awaiting a batch score, in item order
	for i, need := range needScore {
		if need {
			pending = append(pending, i)
		}
	}
	d.scorePending(dets, X, pending, workers)
	return dets, X, nil
}

// applyScore finalizes one detection from its fraud probability. Both
// scoring paths (single-item and batch) converge here.
func (d *Detector) applyScore(det *Detection, score float64) {
	det.Score = score
	det.IsFraud = score >= d.cfg.Threshold
}

// scorePending batch-scores the pending rows through the boosted-tree
// ensemble, splitting the batch into contiguous chunks across the
// worker budget. Scores are independent per row, so the chunking
// changes nothing about the results. It stays a second phase rather
// than a per-item score inside the analysis workers because that
// measured worse end to end (see gbt.PredictMarginBatch).
func (d *Detector) scorePending(dets []Detection, X [][]float64, pending []int, workers int) {
	if len(pending) == 0 {
		return
	}
	vecs := make([][]float64, len(pending))
	for k, i := range pending {
		vecs[k] = X[i]
	}
	scores := make([]float64, len(pending))
	chunk := (len(pending) + workers - 1) / workers
	if chunk < minScoreChunk {
		chunk = minScoreChunk
	}
	sp := obs.StartSpan(d.m.stageScore)
	var wg sync.WaitGroup
	for lo := 0; lo < len(pending); lo += chunk {
		hi := lo + chunk
		if hi > len(pending) {
			hi = len(pending)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			d.clf.PredictProbaBatch(vecs[lo:hi], scores[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
	sp.End()
	for k, i := range pending {
		d.applyScore(&dets[i], scores[k])
	}
}

// minScoreChunk keeps batch-scoring goroutines coarse enough that the
// spawn cost never dominates a small batch.
const minScoreChunk = 64

// DetectItem scores a single item. Filtered items get Score 0.
func (d *Detector) DetectItem(item *ecom.Item) (Detection, error) {
	det, _, err := d.DetectItemWithFeatures(item)
	return det, err
}

// DetectItemWithFeatures scores a single item and also returns the
// feature vector computed along the way, so callers needing both (e.g.
// the service's /v1/explain) pay for one analysis pass. The vector is
// nil when the item fell to the sales cutoff before extraction.
func (d *Detector) DetectItemWithFeatures(item *ecom.Item) (Detection, []float64, error) {
	if !d.trained {
		return Detection{}, nil, ErrNotTrained
	}
	det, v := d.scoreOne(item)
	return det, v, nil
}

// Detect scores every item, applying the rule filter before paying for
// feature extraction. workers <= 0 uses GOMAXPROCS.
func (d *Detector) Detect(items []ecom.Item, workers int) ([]Detection, error) {
	return d.DetectContext(context.Background(), items, workers)
}

// DetectContext is Detect with cancellation: when ctx is canceled the
// batch stops early and the context's error is returned.
func (d *Detector) DetectContext(ctx context.Context, items []ecom.Item, workers int) ([]Detection, error) {
	return d.DetectTexts(ctx, items, nil, workers)
}

// DetectTexts is DetectContext with the items' texts (see analyzeOne).
func (d *Detector) DetectTexts(ctx context.Context, items []ecom.Item, texts [][]string, workers int) ([]Detection, error) {
	dets, _, err := d.scoreBatch(ctx, items, texts, workers)
	return dets, err
}

// DetectWithFeatures scores every item and returns the feature matrix
// computed along the way. X[i] is nil when item i was dropped by the
// sales cutoff before extraction; every other row is the item's
// 11-feature vector, so monitoring (e.g. the service's drift recorder)
// can consume the vectors without a second extraction pass.
func (d *Detector) DetectWithFeatures(ctx context.Context, items []ecom.Item, workers int) ([]Detection, [][]float64, error) {
	return d.scoreBatch(ctx, items, nil, workers)
}
