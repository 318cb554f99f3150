// Comment-analysis layer: the compute-once artifacts behind the fused
// tokenize → filter → features → score pipeline.
//
// Everything the detection stack derives from a comment's text — the
// word sequence, lexicon hits, positive 2-grams, entropy, sentiment,
// rune length and punctuation count — falls out of one segmentation
// pass captured in a CommentAnalysis. An ItemAnalysis aggregates the
// per-comment artifacts in comment order so the 11-feature Vector, the
// stage-one positive-signal filter decision, and the Figs 2–5
// CommentStructure are all field reads (or pure arithmetic) over data
// that was computed exactly once.
//
// The pass is the word-ID kernel (wordtable.go): the segmenter names
// each word token with a dense ID as it finds it, and lexicon hits,
// the sentiment sum, the entropy counts and the item's distinct-word
// count are all reads of ID-indexed arrays. It runs on pooled scratch
// reused across comments, so VectorSignal — the detector's fused entry
// point — allocates only the returned vector.
package features

import (
	"sync"

	"repro/internal/ecom"
	"repro/internal/stats"
	"repro/internal/tokenize"
)

// CommentAnalysis holds every measurement of one comment the detection
// stack consumes, computed in a single segmentation pass.
type CommentAnalysis struct {
	// Words is the comment's word-token sequence (punctuation and
	// whitespace dropped), as Segmenter.Words would return.
	Words []string
	// PositiveHits and NegativeHits count lexicon membership over Words.
	PositiveHits int
	NegativeHits int
	// PositiveGrams counts adjacent word pairs with at least one
	// positive word ("positive 2-grams").
	PositiveGrams int
	// DistinctWords is the number of distinct entries in Words.
	DistinctWords int
	// Entropy is the Shannon entropy of Words' frequencies
	// (stats.EntropyOfWords(Words), computed from per-ID counts).
	Entropy float64
	// Sentiment is the sentiment model's score of Words.
	Sentiment float64
	// RuneLength is the comment length in runes (Fig 4 measures
	// characters, not bytes).
	RuneLength int
	// PunctCount is the number of punctuation runes (Fig 2).
	PunctCount int
}

// HasPositiveSignal reports whether the comment contributes a positive
// word or positive 2-gram — the unit of the detector's stage-one rule.
func (c *CommentAnalysis) HasPositiveSignal() bool {
	return c.PositiveHits > 0 || c.PositiveGrams > 0
}

// Structure converts the analysis into the per-comment structural
// record behind Figs 2–5.
func (c *CommentAnalysis) Structure() CommentStructure {
	cs := CommentStructure{
		PunctCount: c.PunctCount,
		Entropy:    c.Entropy,
		RuneLength: c.RuneLength,
		Sentiment:  c.Sentiment,
	}
	if len(c.Words) > 0 {
		cs.UniqueWordRatio = float64(c.DistinctWords) / float64(len(c.Words))
	}
	return cs
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{toks: make([]tokenize.WordToken, 0, 64)}
}}

// AnalyzeComment measures one comment in a single segmentation pass.
// Rune length and punctuation count fall out of the segmentation walk
// itself (every punctuation rune is its own token and whitespace runs
// are counted), so the raw text is scanned exactly once and never
// re-scanned per token. The returned Words slice is owned by the
// caller.
func (e *Extractor) AnalyzeComment(content string) CommentAnalysis {
	sc := scratchPool.Get().(*scratch)
	sc.beginItem(len(e.words), 1)
	ca := e.analyzeCommentWords(sc, content)
	sc.endItem()
	scratchPool.Put(sc)
	e.countPasses(1, len(ca.Words))
	return ca
}

// countPasses reports comments kernel passes that produced words word
// tokens to the segmenter's pass counter and the analysis throughput
// counters. The kernel's callers call it once per item: each of the
// three is a single cache line that every analysis worker writes, and
// one add per comment had the workers of a batch trading it back and
// forth.
func (e *Extractor) countPasses(comments, words int) {
	e.seg.CountPasses(comments)
	mCommentsAnalyzed.Add(uint64(comments))
	mWordsAnalyzed.Add(uint64(words))
}

// analyzeCommentWords is analyzeComment plus the caller-owned word
// sequence, cut from content at the token offsets.
func (e *Extractor) analyzeCommentWords(sc *scratch, content string) CommentAnalysis {
	ca, _ := e.analyzeComment(sc, content)
	ca.Words = make([]string, len(sc.toks))
	for i, t := range sc.toks {
		ca.Words[i] = content[t.Start:t.End]
	}
	return ca
}

// analyzeComment is the kernel: one segmentation pass over content,
// then one loop over its word tokens by ID. The returned analysis has
// no Words (the scratch holds offsets, not strings); words is their
// number. sc must be inside a beginItem/endItem bracket, which scopes
// the transient IDs and the distinct-word count, and the caller owes
// one countPasses call for all the comments it ran through here.
//
// Results are bit-identical to the string-keyed formulation (the
// oracle in the tests): a word's sentiment term is the same l1−l0
// float, added in word order; occurrence counts are sorted before the
// entropy sum; everything else is integer counting.
//
//cats:hotpath
func (e *Extractor) analyzeComment(sc *scratch, content string) (ca CommentAnalysis, words int) {
	sc.toks, ca.RuneLength, ca.PunctCount = e.seg.AppendWordTokensUncounted(sc.toks[:0], content)
	sc.epoch++
	epoch := sc.epoch
	touched := sc.touched[:0]
	logOdds := e.sent.PriorLogOdds()
	prevPositive := false
	for i := range sc.toks {
		id := sc.toks[i].ID
		if id == tokenize.NoID {
			text := content[sc.toks[i].Start:sc.toks[i].End]
			h := hashWord(text)
			if id = e.tableID(h, text); id == tokenize.NoID {
				id = sc.transientID(len(e.words), h, text)
			}
		}
		info := &e.oov
		if int(id) < len(e.words) {
			info = &e.words[id]
		}
		if info.positive {
			ca.PositiveHits++
		}
		if info.negative {
			ca.NegativeHits++
		}
		if i > 0 && (prevPositive || info.positive) {
			ca.PositiveGrams++
		}
		prevPositive = info.positive
		logOdds += info.term

		c := &sc.cells[id]
		if c.stamp == epoch {
			c.count++
			continue
		}
		if c.stamp < sc.itemStart {
			sc.distinct++
		}
		c.stamp, c.count = epoch, 1
		touched = append(touched, id)
	}
	counts := sc.counts[:0]
	for _, id := range touched {
		counts = append(counts, sc.cells[id].count)
	}
	sc.touched, sc.counts = touched, counts

	words = len(sc.toks)
	ca.DistinctWords = len(counts)
	ca.Entropy = stats.EntropyOfCounts(counts, words)
	ca.Sentiment = e.sent.Squash(logOdds, words)
	return ca, words
}

// ItemAnalysis aggregates an item's per-comment analyses. The running
// sums are accumulated in comment order with exactly the operations the
// pre-fusion extractor used, so Vector is bit-for-bit identical to the
// historical per-item recomputation.
type ItemAnalysis struct {
	// Comments holds the per-comment artifacts in input order.
	Comments []CommentAnalysis

	posTotal      float64 // Σ_j |C_j ∩ P|
	posNegDiff    float64 // Σ_j ‖|C_j∩P| − |C_j∩N|‖
	ngramTotal    float64 // Σ_j Σ_t δ(2-gram ∈ G)
	ngramRatioSum float64
	sentSum       float64
	entropySum    float64
	lenSum        float64
	punctSum      float64
	punctRatioSum float64
	wordTotal     int
	distinctWords int
	nComments     int
	hasPositive   bool
}

// AnalyzeItem analyzes every comment of an item, segmenting each
// exactly once. The per-comment artifacts are retained (with
// caller-owned Words), so use the cheaper VectorSignal when only the
// vector and filter decision are needed.
func (e *Extractor) AnalyzeItem(item *ecom.Item) *ItemAnalysis {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	a := &ItemAnalysis{Comments: make([]CommentAnalysis, 0, len(item.Comments))}
	sc.beginItem(len(e.words), len(item.Comments))
	for i := range item.Comments {
		ca := e.analyzeCommentWords(sc, item.Comments[i].Content)
		a.accumulate(&ca, len(ca.Words))
		a.Comments = append(a.Comments, ca)
	}
	a.distinctWords = sc.distinct
	sc.endItem()
	e.countPasses(a.nComments, a.wordTotal)
	return a
}

// VectorSignal computes the item's 11-feature vector together with the
// stage-one positive-signal decision from one pooled analysis pass per
// comment, retaining nothing: the only allocation is the returned
// vector. It is the detector's fused scoring entry point; the vector is
// bit-identical to AnalyzeItem(item).Vector(). The item's contents are
// gathered in the scratch (endItem drops them again) and go through
// the entry VectorSignalTexts does.
func (e *Extractor) VectorSignal(item *ecom.Item) ([]float64, bool) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return e.vectorSignalTexts(sc, sc.gather(item))
}

// VectorSignalTexts is VectorSignal for a caller that holds an item's
// comments as a column of their contents and nothing else — what a
// projected dataset read (dataset.Reader.NextTexts) yields.
//
//cats:hotpath
func (e *Extractor) VectorSignalTexts(texts []string) ([]float64, bool) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return e.vectorSignalTexts(sc, texts)
}

// vectorSignalTexts is the kernel's one item-level entry: an item's
// comment contents, in order, over the caller's scratch.
//
//cats:hotpath
func (e *Extractor) vectorSignalTexts(sc *scratch, texts []string) ([]float64, bool) {
	var a ItemAnalysis
	sc.beginItem(len(e.words), len(texts))
	for _, text := range texts {
		ca, words := e.analyzeComment(sc, text)
		a.accumulate(&ca, words)
	}
	a.distinctWords = sc.distinct
	sc.endItem()
	e.countPasses(a.nComments, a.wordTotal)
	return a.Vector(), a.hasPositive
}

// accumulate folds one comment's analysis, of the given word count,
// into the item aggregates without retaining it.
//
//cats:hotpath
func (a *ItemAnalysis) accumulate(ca *CommentAnalysis, words int) {
	a.nComments++
	a.wordTotal += words
	a.posTotal += float64(ca.PositiveHits)
	a.posNegDiff += abs(float64(ca.PositiveHits) - float64(ca.NegativeHits))
	a.ngramTotal += float64(ca.PositiveGrams)
	if words > 1 {
		a.ngramRatioSum += float64(ca.PositiveGrams) / float64(words-1)
	}
	a.sentSum += ca.Sentiment
	a.entropySum += ca.Entropy
	a.lenSum += float64(ca.RuneLength)
	a.punctSum += float64(ca.PunctCount)
	if ca.RuneLength > 0 {
		a.punctRatioSum += float64(ca.PunctCount) / float64(ca.RuneLength)
	}
	if ca.HasPositiveSignal() {
		a.hasPositive = true
	}
}

// HasPositiveSignal reports whether any comment carries a positive word
// or positive 2-gram — the detector's stage-one rule as a field read.
func (a *ItemAnalysis) HasPositiveSignal() bool { return a.hasPositive }

// Vector assembles the 11-feature vector (Table II order) from the
// aggregates. Items with no comments get a zero vector.
func (a *ItemAnalysis) Vector() []float64 {
	v := make([]float64, NumFeatures)
	nc := a.nComments
	if nc == 0 {
		return v
	}
	fn := float64(nc)
	v[AveragePositiveNumber] = a.posTotal / fn
	v[AveragePosNegNumber] = a.posNegDiff / fn
	if a.wordTotal > 0 {
		v[UniqueWordRatio] = float64(a.distinctWords) / float64(a.wordTotal)
	}
	v[AverageSentiment] = a.sentSum / fn
	v[AverageCommentEntropy] = a.entropySum / fn
	v[AverageCommentLength] = a.lenSum / fn
	v[SumCommentLength] = a.lenSum
	v[SumPunctuationNumber] = a.punctSum
	v[AveragePunctuationRatio] = a.punctRatioSum / fn
	v[AverageNgramNumber] = a.ngramTotal / fn
	v[AverageNgramRatio] = a.ngramRatioSum / fn
	return v
}
