package features

import (
	"sync"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"repro/internal/ecom"
	"repro/internal/lexicon"
	"repro/internal/sentiment"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/textgen"
	"repro/internal/tokenize"
)

// referenceVector is the pre-fusion feature extractor, kept verbatim as
// the equivalence oracle: it segments each comment with seg.Words and
// re-scans the raw text for rune length and punctuation, exactly as the
// extractor did before the analysis layer. The fused path must be
// bit-for-bit identical to it.
func referenceVector(e *Extractor, item *ecom.Item) []float64 {
	v := make([]float64, NumFeatures)
	nc := len(item.Comments)
	if nc == 0 {
		return v
	}
	var (
		posTotal      float64
		posNegDiff    float64
		ngramTotal    float64
		ngramRatioSum float64
		sentSum       float64
		entropySum    float64
		lenSum        float64
		punctSum      float64
		punctRatioSum float64
		wordTotal     int
	)
	uniq := map[string]struct{}{}
	for i := range item.Comments {
		content := item.Comments[i].Content
		words := e.seg.Words(content)
		runeLen := tokenize.RuneLen(content)
		punct := tokenize.CountPunct(content)

		var pc, ncnt, grams int
		for wi, w := range words {
			if e.pos.Contains(w) {
				pc++
			}
			if e.neg.Contains(w) {
				ncnt++
			}
			if wi+1 < len(words) && (e.pos.Contains(w) || e.pos.Contains(words[wi+1])) {
				grams++
			}
			uniq[w] = struct{}{}
		}
		wordTotal += len(words)
		posTotal += float64(pc)
		posNegDiff += abs(float64(pc) - float64(ncnt))
		ngramTotal += float64(grams)
		if len(words) > 1 {
			ngramRatioSum += float64(grams) / float64(len(words)-1)
		}
		sentSum += e.sent.Score(words)
		entropySum += stats.EntropyOfWords(words)
		lenSum += float64(runeLen)
		punctSum += float64(punct)
		if runeLen > 0 {
			punctRatioSum += float64(punct) / float64(runeLen)
		}
	}
	fn := float64(nc)
	v[AveragePositiveNumber] = posTotal / fn
	v[AveragePosNegNumber] = posNegDiff / fn
	if wordTotal > 0 {
		v[UniqueWordRatio] = float64(len(uniq)) / float64(wordTotal)
	}
	v[AverageSentiment] = sentSum / fn
	v[AverageCommentEntropy] = entropySum / fn
	v[AverageCommentLength] = lenSum / fn
	v[SumCommentLength] = lenSum
	v[SumPunctuationNumber] = punctSum
	v[AveragePunctuationRatio] = punctRatioSum / fn
	v[AverageNgramNumber] = ngramTotal / fn
	v[AverageNgramRatio] = ngramRatioSum / fn
	return v
}

// synthExtractor builds an extractor over the full synthetic vocabulary
// so equivalence runs against realistic comment text.
func synthExtractor(t *testing.T) *Extractor {
	t.Helper()
	bank := textgen.NewBank()
	seg := tokenize.NewSegmenter(bank.Vocabulary())
	texts, labels := synth.PolarCorpus(800, 41)
	docs := make([][]string, len(texts))
	for i, txt := range texts {
		docs[i] = seg.Words(txt)
	}
	sent, err := sentiment.Train(docs, labels)
	if err != nil {
		t.Fatal(err)
	}
	return NewExtractor(seg, lexicon.NewSet(bank.Positive), lexicon.NewSet(bank.Negative), sent)
}

// TestVectorMatchesPreRefactorReference: the fused analysis pipeline
// must reproduce the pre-refactor extractor bit for bit on synthetic
// items and on hand-built edge cases.
func TestVectorMatchesPreRefactorReference(t *testing.T) {
	e := synthExtractor(t)
	u := synth.Generate(synth.Config{
		Name: "equiv", Seed: 42, FraudEvidence: 60, Normal: 60, Shops: 5,
	})
	items := u.Dataset.Items
	items = append(items,
		*item(),                // zero comments → zero vector
		*item(""),              // one empty comment
		*item("", ""),          // only empty comments
		*item("！！！，，，"),        // punctuation only
		*item("   \t\n  "),     // whitespace only
		*item("很好很好很好"),        // repetition (zero entropy)
		*item("abc123 DEF456"), // latin/digit runs
		*item("很好，满意！", "", "质量太差。"), // mixed
	)
	for i := range items {
		want := referenceVector(e, &items[i])
		got := e.Vector(&items[i])
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("item %d (%s) feature %s: fused %v != reference %v",
					i, items[i].ID, Names[j], got[j], want[j])
			}
		}
	}
}

// TestAnalyzeCommentMatchesRawScans: the token-stream-derived rune
// length, punctuation count and word sequence must equal the dedicated
// raw-text scans for arbitrary input.
func TestAnalyzeCommentMatchesRawScans(t *testing.T) {
	e := synthExtractor(t)
	check := func(content string) bool {
		if !utf8.ValidString(content) {
			return true
		}
		ca := e.AnalyzeComment(content)
		if ca.RuneLength != tokenize.RuneLen(content) {
			return false
		}
		if ca.PunctCount != tokenize.CountPunct(content) {
			return false
		}
		words := e.seg.Words(content)
		if len(ca.Words) != len(words) {
			return false
		}
		for i := range words {
			if ca.Words[i] != words[i] {
				return false
			}
		}
		return true
	}
	for _, content := range []string{
		"", " ", "很好，满意！", "！？。", "abc 123", "很好\n太差\t质量", "～☆★很好☆",
	} {
		if !check(content) {
			t.Errorf("analysis diverges from raw scans on %q", content)
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestCommentStructureMatchesReference: Structure() must reproduce the
// pre-refactor CommentStructure measurements.
func TestCommentStructureMatchesReference(t *testing.T) {
	e := synthExtractor(t)
	for _, content := range []string{
		"", "很好，很好！", "质量太差。退货！", "好评好评好评", "abc, def!", "   ",
	} {
		words := e.seg.Words(content)
		want := CommentStructure{
			PunctCount: tokenize.CountPunct(content),
			Entropy:    stats.EntropyOfWords(words),
			RuneLength: tokenize.RuneLen(content),
			Sentiment:  e.sent.Score(words),
		}
		if len(words) > 0 {
			uniq := map[string]struct{}{}
			for _, w := range words {
				uniq[w] = struct{}{}
			}
			want.UniqueWordRatio = float64(len(uniq)) / float64(len(words))
		}
		if got := e.CommentStructure(content); got != want {
			t.Errorf("CommentStructure(%q) = %+v, want %+v", content, got, want)
		}
	}
}

// TestItemAnalysisPositiveSignal: the analysis-layer field must agree
// with the early-exit scan on every item.
func TestItemAnalysisPositiveSignal(t *testing.T) {
	e := synthExtractor(t)
	u := synth.Generate(synth.Config{
		Name: "signal", Seed: 43, FraudEvidence: 40, Normal: 40, Shops: 4,
	})
	items := u.Dataset.Items
	items = append(items, *item(), *item(""), *item("质量太差"), *item("很好"))
	for i := range items {
		want := e.HasPositiveSignal(&items[i])
		if got := e.AnalyzeItem(&items[i]).HasPositiveSignal(); got != want {
			t.Errorf("item %d: analysis signal %v, scan %v", i, got, want)
		}
	}
}

// TestAnalyzeItemSegmentsOncePerComment: the analysis layer's core
// guarantee — one segmentation pass per comment, verified against the
// segmenter's call counter.
func TestAnalyzeItemSegmentsOncePerComment(t *testing.T) {
	e := synthExtractor(t)
	it := item("很好，满意！", "质量太差。", "好评好评", "")
	before := e.seg.Segmentations()
	_ = e.AnalyzeItem(it)
	if got, want := e.seg.Segmentations()-before, int64(len(it.Comments)); got != want {
		t.Fatalf("AnalyzeItem ran %d segmentation passes for %d comments", got, want)
	}
	before = e.seg.Segmentations()
	_ = e.Vector(it)
	if got, want := e.seg.Segmentations()-before, int64(len(it.Comments)); got != want {
		t.Fatalf("Vector ran %d segmentation passes for %d comments", got, want)
	}
	before = e.seg.Segmentations()
	_ = e.CommentStructure("很好，满意！")
	if got := e.seg.Segmentations() - before; got != 1 {
		t.Fatalf("CommentStructure ran %d segmentation passes, want 1", got)
	}
}

// TestVectorSignalCountsPassesOncePerItem: the kernel reports an item's
// segmentation passes with one add per item, and the count stays exact
// with many goroutines sharing the segmenter — the comment total of
// everything analyzed, no more and no less. HasPositiveSignal stops at
// the first positive word and counts only the comments it segmented.
func TestVectorSignalCountsPassesOncePerItem(t *testing.T) {
	e := synthExtractor(t)
	items := []*ecom.Item{
		item(),
		item(""),
		item("很好，满意！", "质量太差。", "好评好评"),
		item("质量一般", "物流太差", "退货", "很好", "满意"),
	}
	perRound := 0
	for _, it := range items {
		perRound += len(it.Comments)
	}
	const goroutines, rounds = 8, 200
	before := e.seg.Segmentations()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, it := range items {
					e.VectorSignal(it)
				}
			}
		}()
	}
	wg.Wait()
	if got, want := e.seg.Segmentations()-before, int64(goroutines*rounds*perRound); got != want {
		t.Fatalf("%d goroutines x %d rounds counted %d passes, want %d", goroutines, rounds, got, want)
	}

	late := items[3] // first positive word in its fourth comment
	before = e.seg.Segmentations()
	if !e.HasPositiveSignal(late) {
		t.Fatal("HasPositiveSignal missed the positive comment")
	}
	if got := e.seg.Segmentations() - before; got != 4 {
		t.Fatalf("HasPositiveSignal counted %d passes, want 4 (it stops at the first positive word)", got)
	}
	before = e.seg.Segmentations()
	if e.HasPositiveSignal(item("质量一般", "物流太差")) {
		t.Fatal("HasPositiveSignal found a signal in two negative comments")
	}
	if got := e.seg.Segmentations() - before; got != 2 {
		t.Fatalf("HasPositiveSignal counted %d passes over 2 comments", got)
	}
}
