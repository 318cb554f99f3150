// Package cats is the public API of this repository's reproduction of
// "CATS: Cross-Platform E-commerce Fraud Detection" (Weng et al., ICDE
// 2019) — a third-party, platform-independent detector of illegally
// promoted ("fraud") e-commerce items that works purely from
// public-domain data: the items' comments plus basic item metadata.
//
// The pipeline mirrors the paper's four components:
//
//   - a data collector (package repro/collect, over internal/collector
//     and internal/crawler) that scrapes shop → item → comment pages;
//   - a semantic analyzer that trains a word2vec model on a large
//     comment corpus, expands seed words into positive/negative
//     lexicons, and scores comment sentiment with a Naive Bayes model;
//   - a feature extractor computing 11 word-level, semantic and
//     structural features per item (Table II);
//   - a two-stage detector: a rule filter, then a gradient-boosted-tree
//     classifier (XGBoost-style; the paper's five alternatives exist
//     only as the rows of the Table III experiment,
//     `catsbench -exp table3`).
//
// The typical flow is:
//
//	sys, err := cats.Train(ctx, cats.TrainingInput{
//	    Corpus:      corpus,      // unlabeled comments, for word2vec
//	    PolarTexts:  polarTexts,  // polarity-labeled comments, for sentiment
//	    PolarLabels: polarLabels,
//	    Vocabulary:  vocab,       // segmenter dictionary
//	    Labeled:     d0,          // labeled items, for the classifier
//	}, cats.DefaultConfig())
//	detections, err := sys.Detect(items)
//
// Because the paper's datasets are proprietary, the repro/internal/synth
// package generates calibrated synthetic stand-ins; see DESIGN.md.
package cats

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ecom"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/ml/gbt"
)

// Re-exported domain types. These aliases make the public API
// self-contained for code living in this module.
type (
	// Item is one e-commerce item with its collected comments.
	Item = ecom.Item
	// Comment is one public comment record.
	Comment = ecom.Comment
	// Dataset is a labeled item collection.
	Dataset = ecom.Dataset
	// Label is ground-truth item status.
	Label = ecom.Label
	// Detection is one scored item.
	Detection = core.Detection
	// StreamStats summarizes a DetectStream run.
	StreamStats = core.StreamStats
)

// Label values.
const (
	Normal        = ecom.Normal
	FraudEvidence = ecom.FraudEvidence
	FraudManual   = ecom.FraudManual
)

// FeatureNames lists the 11 feature names in vector order (Table II).
var FeatureNames = features.Names

// Config configures system training.
type Config struct {
	// Analyzer holds semantic-analyzer settings (word2vec, lexicon
	// expansion, seeds).
	Analyzer core.AnalyzerConfig
	// Detector holds rule-filter and threshold settings.
	Detector core.DetectorConfig
	// Workers bounds feature-extraction parallelism; <= 0 means
	// GOMAXPROCS.
	Workers int
}

// DefaultConfig returns the configuration used across the paper-shaped
// experiments: 32-dim skip-gram embeddings, 200-word lexicons, and the
// XGBoost-style detector.
func DefaultConfig() Config {
	return Config{}
}

// TrainingInput carries everything Train needs.
type TrainingInput struct {
	// Corpus is the unlabeled comment corpus for word2vec training
	// (the paper used ~70M Taobao comments).
	Corpus []string
	// PolarTexts and PolarLabels (1=positive, 0=negative) train the
	// sentiment model.
	PolarTexts  []string
	PolarLabels []int
	// Vocabulary is the word-segmenter dictionary.
	Vocabulary []string
	// Labeled is the ground-truth item dataset the classifier is
	// pre-trained on (the paper's D0).
	Labeled *Dataset
}

// System is a trained CATS instance, safe for concurrent detection.
type System struct {
	analyzer *core.Analyzer
	detector *core.Detector
	workers  int
	// vocabulary is the segmenter dictionary the analyzer was built
	// with: Train's input, or what a loaded snapshot carried.
	vocabulary []string
}

// Train builds the full system: semantic analyzer, feature extractor
// and detector. The context cancels long-running training politely
// between phases.
func Train(ctx context.Context, in TrainingInput, cfg Config) (*System, error) {
	if in.Labeled == nil || len(in.Labeled.Items) == 0 {
		return nil, fmt.Errorf("cats: no labeled training items")
	}
	analyzer, err := core.TrainAnalyzer(in.Corpus, in.PolarTexts, in.PolarLabels, in.Vocabulary, cfg.Analyzer)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sys, err := NewFromAnalyzer(analyzer, in.Labeled, cfg)
	if err != nil {
		return nil, err
	}
	sys.vocabulary = in.Vocabulary
	return sys, nil
}

// NewFromAnalyzer builds and trains a System from an existing analyzer
// (used when the semantic models are trained or loaded separately).
func NewFromAnalyzer(analyzer *core.Analyzer, labeled *Dataset, cfg Config) (*System, error) {
	det := core.NewDetector(analyzer, cfg.Detector)
	if err := det.Train(labeled, cfg.Workers); err != nil {
		return nil, err
	}
	return &System{analyzer: analyzer, detector: det, workers: cfg.Workers}, nil
}

// Vocabulary returns the segmenter dictionary the system was trained
// with (TrainingInput.Vocabulary) or loaded with (the snapshot's) — the
// vocabulary to save it with. It is nil for a system built by
// NewFromAnalyzer, whose caller holds the dictionary.
func (s *System) Vocabulary() []string { return s.vocabulary }

// Analyzer exposes the trained semantic analyzer.
func (s *System) Analyzer() *core.Analyzer { return s.analyzer }

// Detector exposes the trained detector.
func (s *System) Detector() *core.Detector { return s.detector }

// Detect scores items: stage-one rule filtering, then classifier
// probabilities over the 11 features. The rule filter runs before
// feature extraction, so items below the sales cutoff never touch the
// segmenter.
func (s *System) Detect(items []Item) ([]Detection, error) {
	return s.detector.Detect(items, s.workers)
}

// DetectContext is Detect with cancellation: a canceled ctx stops the
// batch early and returns the context's error.
func (s *System) DetectContext(ctx context.Context, items []Item) ([]Detection, error) {
	return s.detector.DetectContext(ctx, items, s.workers)
}

// DetectStream scores a stream of items — JSONL (one Item per line) or
// the columnar dataset format; the reader sniffs which — in batches
// without materializing the dataset, honoring the system's configured
// worker count: the path for larger-than-memory runs. batchSize <= 0
// means 1024. Reading, scoring and emitting overlap, but emit is only
// ever called from the calling goroutine, one call at a time, with each
// item and its detection in input order; it must not keep the item past
// its call. The stream reads what the detector uses — item-level fields
// and comment texts — so on both formats emit's item is projected: its
// ID, ShopID, Name, Category, PriceCents, SalesVolume, Label and Texts
// with Comments == nil; an item under the rule filter's sales cutoff is
// filtered inside the decode, its Texts nil. StreamStats
// counts a JSONL input's lines by decoder (canonical lines take the fast
// one). A non-nil error from emit aborts the stream; a panic
// in the read or score stage is returned as an error naming the stage.
func (s *System) DetectStream(ctx context.Context, r io.Reader, batchSize int, emit func(*Item, Detection) error) (StreamStats, error) {
	return s.detector.DetectStream(ctx, dataset.NewReader(r),
		core.StreamOptions{BatchSize: batchSize, Workers: s.workers}, emit)
}

// DetectItem scores a single item.
func (s *System) DetectItem(item *Item) (Detection, error) {
	return s.detector.DetectItem(item)
}

// Features computes the 11-feature vector of an item (Table II order).
func (s *System) Features(item *Item) []float64 {
	return s.detector.Extractor().Vector(item)
}

// FeatureImportance returns the boosted-tree model's split-count
// feature importance (Fig 7).
func (s *System) FeatureImportance() ([]gbt.Importance, error) {
	return s.detector.Model().FeatureImportance()
}

// Explain reports how often each feature was consulted on the item's
// decision paths through the boosted-tree ensemble, most-used first —
// a lightweight "why was this item flagged" for reviewer workflows.
func (s *System) Explain(item *Item) ([]gbt.Importance, error) {
	return s.detector.Explain(item)
}

// MLDataset extracts the feature matrix + labels for a labeled item
// set, for callers running their own evaluations (cross-validation,
// baselines).
func (s *System) MLDataset(items []Item) *ml.Dataset {
	return s.detector.BuildMLDataset(items, s.workers)
}
