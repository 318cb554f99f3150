// Package core wires CATS' four components into the detection pipeline
// of Section II-B: the semantic analyzer (word2vec + lexicon expansion
// + sentiment model), the feature extractor, and the two-stage detector
// (rule filter, then a binary classifier — XGBoost-style boosted trees
// by default, selectable per Table III).
package core

import (
	"fmt"
	"sync"

	"repro/internal/features"
	"repro/internal/lexicon"
	"repro/internal/sentiment"
	"repro/internal/tokenize"
	"repro/internal/word2vec"
)

// DefaultPositiveSeeds are the positive seed words the paper's lexicon
// construction starts from (e.g. 好评 "good reputation").
var DefaultPositiveSeeds = []string{"好评", "很好", "不错", "满意", "喜欢"}

// DefaultNegativeSeeds are the negative seed words (e.g. 差评 "bad
// reputation").
var DefaultNegativeSeeds = []string{"差评", "太差", "失望", "退货", "垃圾"}

// AnalyzerConfig configures semantic-analyzer training.
type AnalyzerConfig struct {
	// Word2Vec are the embedding training hyperparameters.
	Word2Vec word2vec.Config
	// Lexicon controls the k-NN seed expansion.
	Lexicon lexicon.Config
	// PositiveSeeds and NegativeSeeds default to the package defaults
	// when empty.
	PositiveSeeds []string
	NegativeSeeds []string
}

// Analyzer is CATS' semantic analyzer: it owns the trained word2vec
// model, the expanded positive/negative lexicons, the sentiment model,
// and the segmenter. It is immutable after TrainAnalyzer and safe for
// concurrent use.
type Analyzer struct {
	Segmenter *tokenize.Segmenter
	Embedding *word2vec.Model
	Positive  *lexicon.Set
	Negative  *lexicon.Set
	Sentiment *sentiment.Model

	// extractor is built on first use and then shared: assembling one
	// reads all three models into its word table, which every detector
	// over this analyzer (each retrained challenger, say) can reuse.
	extractorOnce sync.Once
	extractor     *features.Extractor
}

// TrainAnalyzer builds an Analyzer from raw text:
//
//   - corpus: a large unlabeled comment corpus for word2vec (the paper
//     used 70M Taobao comments);
//   - polarTexts/polarLabels: a polarity-labeled comment corpus for the
//     sentiment model (the SnowNLP substitute), labels 1=positive;
//   - vocab: the segmenter dictionary.
func TrainAnalyzer(corpus []string, polarTexts []string, polarLabels []int, vocab []string, cfg AnalyzerConfig) (*Analyzer, error) {
	a := &Analyzer{Segmenter: tokenize.NewSegmenter(vocab)}

	segmented := make([][]string, len(corpus))
	for i, text := range corpus {
		segmented[i] = a.Segmenter.Words(text)
	}
	model, err := word2vec.Train(segmented, cfg.Word2Vec)
	if err != nil {
		return nil, fmt.Errorf("core: train word2vec: %w", err)
	}
	a.Embedding = model

	posSeeds := cfg.PositiveSeeds
	if len(posSeeds) == 0 {
		posSeeds = DefaultPositiveSeeds
	}
	negSeeds := cfg.NegativeSeeds
	if len(negSeeds) == 0 {
		negSeeds = DefaultNegativeSeeds
	}
	posWords, err := lexicon.Expand(model, posSeeds, cfg.Lexicon)
	if err != nil {
		return nil, fmt.Errorf("core: expand positive lexicon: %w", err)
	}
	negWords, err := lexicon.Expand(model, negSeeds, cfg.Lexicon)
	if err != nil {
		return nil, fmt.Errorf("core: expand negative lexicon: %w", err)
	}
	// A word reachable from both seed sets is ambiguous; drop it from
	// both rather than let one feature double count it.
	posSet := map[string]bool{}
	for _, w := range posWords {
		posSet[w] = true
	}
	var pos, neg []string
	for _, w := range negWords {
		if posSet[w] {
			posSet[w] = false
			continue
		}
		neg = append(neg, w)
	}
	for _, w := range posWords {
		if posSet[w] {
			pos = append(pos, w)
		}
	}
	a.Positive = lexicon.NewSet(pos)
	a.Negative = lexicon.NewSet(neg)

	polarDocs := make([][]string, len(polarTexts))
	for i, t := range polarTexts {
		polarDocs[i] = a.Segmenter.Words(t)
	}
	sm, err := sentiment.Train(polarDocs, polarLabels)
	if err != nil {
		return nil, fmt.Errorf("core: train sentiment model: %w", err)
	}
	a.Sentiment = sm
	return a, nil
}

// NewAnalyzerFromParts assembles an Analyzer from already-built pieces
// (used by tests and by callers that train components separately).
func NewAnalyzerFromParts(seg *tokenize.Segmenter, emb *word2vec.Model, pos, neg *lexicon.Set, sent *sentiment.Model) *Analyzer {
	return &Analyzer{Segmenter: seg, Embedding: emb, Positive: pos, Negative: neg, Sentiment: sent}
}

// Extractor returns the feature extractor backed by this analyzer: the
// same one on every call, built from the fields as they stand at the
// first.
func (a *Analyzer) Extractor() *features.Extractor {
	a.extractorOnce.Do(func() {
		a.extractor = features.NewExtractor(a.Segmenter, a.Positive, a.Negative, a.Sentiment)
	})
	return a.extractor
}

// OracleAnalyzer builds an analyzer that skips word2vec training and
// uses known lexicons directly — a synthetic word bank's ground truth:
// textgen.Bank's Vocabulary, PositiveForms and Negative — with a
// sentiment model trained on the given polar corpus. Experiments and
// tests use it when the lexicon-recovery step itself is not under test.
func OracleAnalyzer(vocab, positive, negative, polarTexts []string, polarLabels []int) (*Analyzer, error) {
	seg := tokenize.NewSegmenter(vocab)
	polarDocs := make([][]string, len(polarTexts))
	for i, t := range polarTexts {
		polarDocs[i] = seg.Words(t)
	}
	sm, err := sentiment.Train(polarDocs, polarLabels)
	if err != nil {
		return nil, fmt.Errorf("core: train sentiment model: %w", err)
	}
	return NewAnalyzerFromParts(seg, nil, lexicon.NewSet(positive), lexicon.NewSet(negative), sm), nil
}
