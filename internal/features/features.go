// Package features computes the 11 platform-independent item features
// of the paper's Table II from an item's comments, at three levels:
//
//   - word level: averagePositiveNumber, averagePositive/NegativeNumber,
//     averageNgramNumber, averageNgramRatio — counting positive/negative
//     lexicon hits and positive 2-grams per comment;
//   - semantic level: averageSentiment — the mean sentiment score of the
//     item's comments;
//   - structure level: uniqueWordRatio, averageCommentEntropy,
//     averageCommentLength, sumCommentLength, sumPunctuationNumber,
//     averagePunctuationRatio — writing-style statistics (Figs 2–5).
//
// The Extractor is immutable after construction and safe for concurrent
// use; ExtractDataset fans items out over a worker pool ("CATS' feature
// extractor is implemented in a parallelized style").
package features

import (
	"context"
	"runtime"

	"repro/internal/ecom"
	"repro/internal/lexicon"
	"repro/internal/par"
	"repro/internal/sentiment"
	"repro/internal/tokenize"
)

// Count of features; indices below name the columns of a feature vector.
const NumFeatures = 11

// Feature vector column indices.
const (
	AveragePositiveNumber = iota
	AveragePosNegNumber
	UniqueWordRatio
	AverageSentiment
	AverageCommentEntropy
	AverageCommentLength
	SumCommentLength
	SumPunctuationNumber
	AveragePunctuationRatio
	AverageNgramNumber
	AverageNgramRatio
)

// Names lists feature names in column order, as used in Table II and
// the Fig 7 importance plot.
var Names = []string{
	"averagePositiveNumber",
	"averagePositive/NegativeNumber",
	"uniqueWordRatio",
	"averageSentiment",
	"averageCommentEntropy",
	"averageCommentLength",
	"sumCommentLength",
	"sumPunctuationNumber",
	"averagePunctuationRatio",
	"averageNgramNumber",
	"averageNgramRatio",
}

// Extractor computes feature vectors for items.
type Extractor struct {
	seg  *tokenize.Segmenter
	pos  *lexicon.Set
	neg  *lexicon.Set
	sent *sentiment.Model

	// The word-ID table (wordtable.go): what pos, neg and sent say
	// about each word, indexed by the ID seg hands out with the token.
	words []wordInfo
	extra wordIndex // model words outside seg's dictionary, IDs from DictSize()
	oov   wordInfo  // what the models say about any word outside the table
}

// NewExtractor assembles an Extractor from the semantic analyzer's
// outputs: the segmenter dictionary, the expanded positive and negative
// lexicons, and the sentiment model. It reads the three models into the
// extractor's word table once; they must not change afterwards.
func NewExtractor(seg *tokenize.Segmenter, pos, neg *lexicon.Set, sent *sentiment.Model) *Extractor {
	e := &Extractor{seg: seg, pos: pos, neg: neg, sent: sent}
	e.buildWordTable()
	return e
}

// Segmenter returns the extractor's word segmenter. Its call counter
// lets callers verify how many segmentation passes a pipeline ran.
func (e *Extractor) Segmenter() *tokenize.Segmenter { return e.seg }

// Vector computes the 11-feature vector for one item. Items with no
// comments get a zero vector (they are normally removed earlier by the
// detector's rule filter). Callers that also need the filter decision
// should use VectorSignal; callers needing per-comment structure should
// use AnalyzeItem and derive all three from the one analysis pass.
func (e *Extractor) Vector(item *ecom.Item) []float64 {
	v, _ := e.VectorSignal(item)
	return v
}

// HasPositiveSignal reports whether the item contains at least one
// positive word or positive 2-gram across its comments — the detector's
// rule filter drops items with none.
//
// This is the filter-only fast path: it stops at the first positive
// word (a positive 2-gram implies one), segmenting each comment at most
// once. Detection paths that go on to extract features should instead
// read ItemAnalysis.HasPositiveSignal so the same segmentation pass
// also feeds the feature vector.
//
//cats:hotpath
func (e *Extractor) HasPositiveSignal(item *ecom.Item) bool {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	defer sc.endItem()
	texts := sc.gather(item)
	for i, content := range texts {
		sc.toks, _, _ = e.seg.AppendWordTokensUncounted(sc.toks[:0], content)
		for _, t := range sc.toks {
			id := t.ID
			if id == tokenize.NoID {
				text := content[t.Start:t.End]
				id = e.tableID(hashWord(text), text)
			}
			if id != tokenize.NoID && e.words[id].positive {
				e.seg.CountPasses(i + 1)
				return true
			}
		}
	}
	e.seg.CountPasses(len(texts))
	return false
}

// ExtractDataset computes feature vectors for every item in parallel,
// preserving item order. workers <= 0 uses GOMAXPROCS.
func (e *Extractor) ExtractDataset(items []ecom.Item, workers int) [][]float64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([][]float64, len(items))
	// The kept signature supplies no context; nothing can cancel this
	// one, so For's error is always nil.
	_ = par.For(context.TODO(), len(items), workers, func(i int) { out[i] = e.Vector(&items[i]) })
	return out
}

// CommentStructure holds the per-comment structural measurements behind
// Figs 2–5; the experiments sample these across items to draw the
// distribution figures.
type CommentStructure struct {
	PunctCount      int
	Entropy         float64
	RuneLength      int
	UniqueWordRatio float64
	Sentiment       float64
}

// CommentStructure measures one comment in one segmentation pass.
func (e *Extractor) CommentStructure(content string) CommentStructure {
	ca := e.AnalyzeComment(content)
	return ca.Structure()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
