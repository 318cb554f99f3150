package sentiment

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/synth"
	"repro/internal/textgen"
	"repro/internal/tokenize"
)

func trainToy(t *testing.T) *Model {
	t.Helper()
	docs := [][]string{
		{"很好", "满意", "推荐"},
		{"不错", "喜欢", "很好"},
		{"好评", "好用"},
		{"太差", "失望"},
		{"退货", "垃圾", "难用"},
		{"差评", "糟糕"},
	}
	labels := []int{1, 1, 1, 0, 0, 0}
	m, err := Train(docs, labels)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestScorePolarity(t *testing.T) {
	m := trainToy(t)
	if s := m.Score([]string{"很好", "满意"}); s <= 0.5 {
		t.Errorf("positive doc score = %v, want > 0.5", s)
	}
	if s := m.Score([]string{"太差", "退货"}); s >= 0.5 {
		t.Errorf("negative doc score = %v, want < 0.5", s)
	}
}

func TestScoreBounds(t *testing.T) {
	m := trainToy(t)
	docs := [][]string{
		{"很好"}, {"太差"}, {"未知词"}, {"很好", "太差", "未知"},
		{"很好", "很好", "很好", "很好", "很好", "很好", "很好", "很好"},
	}
	for _, d := range docs {
		if s := m.Score(d); s < 0 || s > 1 {
			t.Fatalf("Score(%v) = %v out of [0,1]", d, s)
		}
	}
}

func TestScoreEmptyNeutral(t *testing.T) {
	m := trainToy(t)
	if s := m.Score(nil); s != 0.5 {
		t.Fatalf("Score(empty) = %v, want 0.5", s)
	}
}

func TestUnknownWordsNearNeutral(t *testing.T) {
	m := trainToy(t)
	s := m.Score([]string{"词甲", "词乙"})
	if s < 0.3 || s > 0.7 {
		t.Fatalf("all-OOV score = %v, want near neutral", s)
	}
}

func TestClassify(t *testing.T) {
	m := trainToy(t)
	if m.Classify([]string{"很好"}) != 1 {
		t.Error("Classify positive failed")
	}
	if m.Classify([]string{"垃圾"}) != 0 {
		t.Error("Classify negative failed")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train([][]string{{"a"}}, []int{1, 0}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Train([][]string{{"a"}}, []int{2}); err == nil {
		t.Error("non-binary label should error")
	}
	if _, err := Train([][]string{{"a"}, {"b"}}, []int{1, 1}); !errors.Is(err, ErrNoTraining) {
		t.Error("single-class training should return ErrNoTraining")
	}
}

func TestVocabSize(t *testing.T) {
	m := trainToy(t)
	if v := m.VocabSize(); v != 14 {
		t.Fatalf("VocabSize = %d, want 14", v)
	}
}

// TestOnGeneratedCorpus trains on the synthetic polar corpus and checks
// held-out classification accuracy — the end-to-end behavior the CATS
// pipeline relies on.
func TestOnGeneratedCorpus(t *testing.T) {
	texts, labels := synth.PolarCorpus(2000, 42)
	bank := textgen.NewBank()
	seg := tokenize.NewSegmenter(bank.Vocabulary())
	docs := make([][]string, len(texts))
	for i, txt := range texts {
		docs[i] = seg.Words(txt)
	}
	m, err := Train(docs[:1600], labels[:1600])
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 1600; i < 2000; i++ {
		if m.Classify(docs[i]) == labels[i] {
			correct++
		}
	}
	acc := float64(correct) / 400
	if acc < 0.9 {
		t.Fatalf("held-out sentiment accuracy %.3f, want >= 0.9", acc)
	}
}

// TestFraudVsNormalSeparation reproduces the Fig 1 premise: fraud-style
// comments should score markedly higher than normal-style ones.
func TestFraudVsNormalSeparation(t *testing.T) {
	texts, labels := synth.PolarCorpus(2000, 43)
	bank := textgen.NewBank()
	seg := tokenize.NewSegmenter(bank.Vocabulary())
	docs := make([][]string, len(texts))
	for i, txt := range texts {
		docs[i] = seg.Words(txt)
	}
	m, err := Train(docs, labels)
	if err != nil {
		t.Fatal(err)
	}
	gen := textgen.NewGenerator(bank, rand.New(rand.NewSource(9)))
	var fraudSum, normalSum float64
	const n = 200
	for i := 0; i < n; i++ {
		fraudSum += m.Score(seg.Words(gen.Comment(textgen.FraudStyle())))
		normalSum += m.Score(seg.Words(gen.Comment(textgen.NormalStyle())))
	}
	fraudMean, normalMean := fraudSum/n, normalSum/n
	if fraudMean <= normalMean {
		t.Fatalf("fraud mean sentiment %.3f <= normal %.3f", fraudMean, normalMean)
	}
	if fraudMean < 0.8 {
		t.Errorf("fraud mean sentiment %.3f, want concentrated near 1", fraudMean)
	}
}

// TestWordLogOddsRebuildScore: summing PriorLogOdds and the per-word
// terms EachWordLogOdds hands out (OOVLogOdds for a word it never
// names) in word order, then Squash, is Score bit for bit — the
// contract the feature extractor's ID-indexed table is built on.
func TestWordLogOddsRebuildScore(t *testing.T) {
	// Words seen under one polarity only, and under both.
	shared, err := Train([][]string{{"好", "质量"}, {"质量", "质量", "差"}, {"物流"}}, []int{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Model{trainToy(t), shared} {
		checkWordLogOdds(t, m)
	}
	var unfitted Model
	if got := unfitted.Squash(3, 2); got != 0.5 {
		t.Fatalf("unfitted Squash = %v, want 0.5", got)
	}
}

func checkWordLogOdds(t *testing.T, m *Model) {
	t.Helper()
	terms := map[string]float64{}
	m.EachWordLogOdds(func(w string, term float64) {
		if _, dup := terms[w]; dup {
			t.Fatalf("EachWordLogOdds visited %q twice", w)
		}
		terms[w] = term
	})
	if len(terms) != m.VocabSize() {
		t.Fatalf("EachWordLogOdds visited %d words, vocabulary has %d", len(terms), m.VocabSize())
	}
	docs := [][]string{nil, {"生词"}, {"生词", "生词", "另一个"}}
	for w := range terms {
		docs = append(docs, []string{w}, []string{w, "生词", w})
		docs[2] = append(docs[2], w)
	}
	for _, doc := range docs {
		sum := m.PriorLogOdds()
		for _, w := range doc {
			term, ok := terms[w]
			if !ok {
				term = m.OOVLogOdds()
			}
			sum += term
		}
		got, want := m.Squash(sum, len(doc)), m.Score(doc)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("doc %q: rebuilt %v, Score %v", doc, got, want)
		}
	}
}
