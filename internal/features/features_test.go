package features

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ecom"
	"repro/internal/lexicon"
	"repro/internal/sentiment"
	"repro/internal/synth"
	"repro/internal/textgen"
	"repro/internal/tokenize"
)

// toyExtractor builds an extractor with a tiny hand-built vocabulary so
// feature values can be verified by hand.
func toyExtractor(t *testing.T) *Extractor {
	t.Helper()
	vocab := []string{"很好", "满意", "太差", "质量", "物流", "不错"}
	seg := tokenize.NewSegmenter(vocab)
	pos := lexicon.NewSet([]string{"很好", "满意", "不错"})
	neg := lexicon.NewSet([]string{"太差"})
	sent, err := sentiment.Train(
		[][]string{{"很好", "满意"}, {"不错"}, {"太差"}, {"太差", "太差"}},
		[]int{1, 1, 0, 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	return NewExtractor(seg, pos, neg, sent)
}

func item(comments ...string) *ecom.Item {
	it := &ecom.Item{ID: "i", SalesVolume: 10}
	for i, c := range comments {
		it.Comments = append(it.Comments, ecom.Comment{ID: string(rune('a' + i)), Content: c})
	}
	return it
}

func TestVectorLengthAndNames(t *testing.T) {
	if len(Names) != NumFeatures {
		t.Fatalf("len(Names) = %d, want %d", len(Names), NumFeatures)
	}
	e := toyExtractor(t)
	v := e.Vector(item("很好"))
	if len(v) != NumFeatures {
		t.Fatalf("len(Vector) = %d, want %d", len(v), NumFeatures)
	}
}

func TestZeroVectorForNoComments(t *testing.T) {
	e := toyExtractor(t)
	v := e.Vector(item())
	for i, x := range v {
		if x != 0 {
			t.Fatalf("feature %s = %v on empty item, want 0", Names[i], x)
		}
	}
}

func TestWordLevelFeatures(t *testing.T) {
	e := toyExtractor(t)
	// Comment 1: 很好满意太差 → pos 2, neg 1; comment 2: 质量 → pos 0, neg 0.
	v := e.Vector(item("很好满意太差", "质量"))
	if got := v[AveragePositiveNumber]; got != 1.0 {
		t.Errorf("averagePositiveNumber = %v, want 1.0 ((2+0)/2)", got)
	}
	// ‖2−1‖ + ‖0−0‖ over 2 comments = 0.5.
	if got := v[AveragePosNegNumber]; got != 0.5 {
		t.Errorf("averagePositive/NegativeNumber = %v, want 0.5", got)
	}
}

func TestNgramFeatures(t *testing.T) {
	e := toyExtractor(t)
	// 很好满意 → words [很好 满意], one 2-gram, both positive → 1 positive gram.
	v := e.Vector(item("很好满意"))
	if got := v[AverageNgramNumber]; got != 1 {
		t.Errorf("averageNgramNumber = %v, want 1", got)
	}
	// ratio = grams / (len(words)-1) = 1/1.
	if got := v[AverageNgramRatio]; got != 1 {
		t.Errorf("averageNgramRatio = %v, want 1", got)
	}
	// 质量物流 → no positive words → no positive 2-grams.
	v2 := e.Vector(item("质量物流"))
	if got := v2[AverageNgramNumber]; got != 0 {
		t.Errorf("averageNgramNumber = %v, want 0", got)
	}
}

func TestNgramMixedPair(t *testing.T) {
	e := toyExtractor(t)
	// 质量很好 → (质量, 很好): one word positive → counts as positive gram.
	v := e.Vector(item("质量很好"))
	if got := v[AverageNgramNumber]; got != 1 {
		t.Errorf("averageNgramNumber = %v, want 1 for mixed pair", got)
	}
}

func TestStructuralFeatures(t *testing.T) {
	e := toyExtractor(t)
	v := e.Vector(item("很好，满意！", "质量"))
	// Lengths: 6 runes and 2 runes.
	if got := v[AverageCommentLength]; got != 4 {
		t.Errorf("averageCommentLength = %v, want 4", got)
	}
	if got := v[SumCommentLength]; got != 8 {
		t.Errorf("sumCommentLength = %v, want 8", got)
	}
	if got := v[SumPunctuationNumber]; got != 2 {
		t.Errorf("sumPunctuationNumber = %v, want 2", got)
	}
	// Punct ratios: 2/6 and 0/2 → avg 1/6.
	if got := v[AveragePunctuationRatio]; math.Abs(got-1.0/6) > 1e-12 {
		t.Errorf("averagePunctuationRatio = %v, want 1/6", got)
	}
}

func TestUniqueWordRatio(t *testing.T) {
	e := toyExtractor(t)
	// 很好很好很好 → 3 words, 1 unique → 1/3.
	v := e.Vector(item("很好很好很好"))
	if got := v[UniqueWordRatio]; math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("uniqueWordRatio = %v, want 1/3", got)
	}
	// All distinct → 1.
	v2 := e.Vector(item("很好满意质量"))
	if got := v2[UniqueWordRatio]; got != 1 {
		t.Errorf("uniqueWordRatio = %v, want 1", got)
	}
}

func TestEntropyFeature(t *testing.T) {
	e := toyExtractor(t)
	// Repeated single word → entropy 0.
	v := e.Vector(item("很好很好"))
	if got := v[AverageCommentEntropy]; got != 0 {
		t.Errorf("entropy of repeated word = %v, want 0", got)
	}
	// Two distinct words → entropy 1 bit.
	v2 := e.Vector(item("很好满意"))
	if got := v2[AverageCommentEntropy]; math.Abs(got-1) > 1e-12 {
		t.Errorf("entropy = %v, want 1", got)
	}
}

func TestSentimentFeatureOrdering(t *testing.T) {
	e := toyExtractor(t)
	pos := e.Vector(item("很好满意"))[AverageSentiment]
	neg := e.Vector(item("太差太差"))[AverageSentiment]
	if pos <= neg {
		t.Fatalf("positive sentiment %v <= negative %v", pos, neg)
	}
}

func TestHasPositiveSignal(t *testing.T) {
	e := toyExtractor(t)
	if !e.HasPositiveSignal(item("质量很好")) {
		t.Error("positive word not detected")
	}
	if e.HasPositiveSignal(item("质量太差")) {
		t.Error("false positive signal")
	}
	if e.HasPositiveSignal(item()) {
		t.Error("empty item should have no signal")
	}
}

func TestExtractDatasetParallelMatchesSerial(t *testing.T) {
	u := synth.Generate(synth.Config{
		Name: "t", Seed: 5, FraudEvidence: 30, Normal: 30, Shops: 3,
	})
	bank := textgen.NewBank()
	seg := tokenize.NewSegmenter(bank.Vocabulary())
	sent, err := sentiment.Train(
		[][]string{{"很好"}, {"太差"}},
		[]int{1, 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExtractor(seg, lexicon.NewSet(bank.Positive), lexicon.NewSet(bank.Negative), sent)
	par := e.ExtractDataset(u.Dataset.Items, nil, 8)
	ser := e.ExtractDataset(u.Dataset.Items, nil, 1)
	if len(par) != len(ser) {
		t.Fatal("length mismatch")
	}
	for i := range par {
		for j := range par[i] {
			if par[i][j] != ser[i][j] {
				t.Fatalf("row %d feature %d differs: %v vs %v", i, j, par[i][j], ser[i][j])
			}
		}
	}
}

func TestCommentStructure(t *testing.T) {
	e := toyExtractor(t)
	cs := e.CommentStructure("很好，很好！")
	if cs.PunctCount != 2 {
		t.Errorf("PunctCount = %d, want 2", cs.PunctCount)
	}
	if cs.RuneLength != 6 {
		t.Errorf("RuneLength = %d, want 6", cs.RuneLength)
	}
	if cs.UniqueWordRatio != 0.5 {
		t.Errorf("UniqueWordRatio = %v, want 0.5", cs.UniqueWordRatio)
	}
	if cs.Entropy != 0 {
		t.Errorf("Entropy = %v, want 0", cs.Entropy)
	}
	empty := e.CommentStructure("")
	if empty.Sentiment != 0.5 || empty.UniqueWordRatio != 0 {
		t.Errorf("empty comment structure = %+v", empty)
	}
}

// TestFraudNormalSeparation verifies the core premise: on generated
// data, fraud items' features differ from normal ones in the directions
// the paper reports.
func TestFraudNormalSeparation(t *testing.T) {
	u := synth.Generate(synth.Config{
		Name: "sep", Seed: 11, FraudEvidence: 120, Normal: 120, Shops: 5,
	})
	bank := u.Bank
	seg := tokenize.NewSegmenter(bank.Vocabulary())
	texts, labels := synth.PolarCorpus(1500, 12)
	docs := make([][]string, len(texts))
	for i, txt := range texts {
		docs[i] = seg.Words(txt)
	}
	sent, err := sentiment.Train(docs, labels)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExtractor(seg, lexicon.NewSet(bank.Positive), lexicon.NewSet(bank.Negative), sent)

	means := func(items []*ecom.Item) []float64 {
		out := make([]float64, NumFeatures)
		for _, it := range items {
			v := e.Vector(it)
			for j := range v {
				out[j] += v[j]
			}
		}
		for j := range out {
			out[j] /= float64(len(items))
		}
		return out
	}
	fraud, normal := u.Dataset.Split()
	fm, nm := means(fraud), means(normal)

	gt := func(idx int, name string) {
		if fm[idx] <= nm[idx] {
			t.Errorf("%s: fraud mean %v <= normal %v", name, fm[idx], nm[idx])
		}
	}
	lt := func(idx int, name string) {
		if fm[idx] >= nm[idx] {
			t.Errorf("%s: fraud mean %v >= normal %v", name, fm[idx], nm[idx])
		}
	}
	gt(AveragePositiveNumber, "averagePositiveNumber")
	gt(AveragePosNegNumber, "averagePos/NegNumber")
	gt(AverageSentiment, "averageSentiment")
	gt(AverageCommentLength, "averageCommentLength")
	gt(SumPunctuationNumber, "sumPunctuationNumber")
	gt(AverageNgramNumber, "averageNgramNumber")
	gt(AverageCommentEntropy, "averageCommentEntropy")
	lt(UniqueWordRatio, "uniqueWordRatio")
	_ = rand.Int
}
