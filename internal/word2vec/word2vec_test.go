package word2vec

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/synth"
	"repro/internal/textgen"
	"repro/internal/tokenize"
)

// clusterCorpus builds sentences where words within a cluster co-occur
// and words across clusters never do — embeddings must pull clusters
// together.
func clusterCorpus(clusters [][]string, sentences int, seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	var corpus [][]string
	for i := 0; i < sentences; i++ {
		c := clusters[i%len(clusters)]
		sent := make([]string, 8)
		for j := range sent {
			sent[j] = c[rng.Intn(len(c))]
		}
		corpus = append(corpus, sent)
	}
	return corpus
}

var (
	clusterA = []string{"好评", "很好", "不错", "满意", "喜欢", "推荐"}
	clusterB = []string{"差评", "太差", "失望", "退货", "垃圾", "难用"}
)

func trainTestModel(t *testing.T) *Model {
	t.Helper()
	corpus := clusterCorpus([][]string{clusterA, clusterB}, 600, 1)
	m, err := Train(corpus, Config{Dim: 16, Epochs: 5, MinCount: 2, Seed: 1})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return m
}

func TestTrainClustersCooccurringWords(t *testing.T) {
	m := trainTestModel(t)
	within, err := m.Similarity("好评", "很好")
	if err != nil {
		t.Fatal(err)
	}
	across, err := m.Similarity("好评", "差评")
	if err != nil {
		t.Fatal(err)
	}
	if within <= across {
		t.Fatalf("within-cluster sim %.3f <= across-cluster %.3f", within, across)
	}
	if within < 0.5 {
		t.Errorf("within-cluster sim %.3f unexpectedly low", within)
	}
}

func TestNearestReturnsClusterMates(t *testing.T) {
	m := trainTestModel(t)
	nbs := m.Nearest("好评", 3)
	if len(nbs) != 3 {
		t.Fatalf("Nearest returned %d, want 3", len(nbs))
	}
	inA := map[string]bool{}
	for _, w := range clusterA {
		inA[w] = true
	}
	for _, nb := range nbs {
		if !inA[nb.Word] {
			t.Errorf("neighbor %q of 好评 is not in its co-occurrence cluster", nb.Word)
		}
	}
	// Sorted descending.
	for i := 1; i < len(nbs); i++ {
		if nbs[i].Sim > nbs[i-1].Sim {
			t.Error("Nearest not sorted by similarity")
		}
	}
}

func TestNearestExcludesSelf(t *testing.T) {
	m := trainTestModel(t)
	for _, nb := range m.Nearest("好评", 10) {
		if nb.Word == "好评" {
			t.Fatal("Nearest returned the query word itself")
		}
	}
}

func TestNearestOOV(t *testing.T) {
	m := trainTestModel(t)
	if nbs := m.Nearest("不存在", 5); nbs != nil {
		t.Fatalf("Nearest(OOV) = %v, want nil", nbs)
	}
}

func TestMinCountFilters(t *testing.T) {
	corpus := [][]string{
		{"常见", "常见", "常见", "常见", "罕见"},
		{"常见", "常见", "常见", "常见"},
	}
	m, err := Train(corpus, Config{MinCount: 3, Epochs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Contains("罕见") {
		t.Error("word below MinCount kept in vocabulary")
	}
	if !m.Contains("常见") {
		t.Error("frequent word missing from vocabulary")
	}
	if m.Count("常见") != 8 {
		t.Errorf("Count = %d, want 8", m.Count("常见"))
	}
	if m.Count("罕见") != 0 {
		t.Errorf("Count(filtered) = %d, want 0", m.Count("罕见"))
	}
}

func TestEmptyCorpus(t *testing.T) {
	if _, err := Train(nil, Config{}); !errors.Is(err, ErrEmptyCorpus) {
		t.Fatalf("Train(nil) err = %v, want ErrEmptyCorpus", err)
	}
	// All words below MinCount.
	if _, err := Train([][]string{{"一", "二"}}, Config{MinCount: 5}); !errors.Is(err, ErrEmptyCorpus) {
		t.Fatalf("err = %v, want ErrEmptyCorpus", err)
	}
}

func TestSimilarityErrors(t *testing.T) {
	m := trainTestModel(t)
	if _, err := m.Similarity("好评", "没有这个词"); err == nil {
		t.Error("Similarity with OOV should error")
	}
}

func TestVectorDimension(t *testing.T) {
	m := trainTestModel(t)
	v, ok := m.Vector("好评")
	if !ok || len(v) != 16 {
		t.Fatalf("Vector dims = %d, want 16", len(v))
	}
}

func TestDeterministicTraining(t *testing.T) {
	corpus := clusterCorpus([][]string{clusterA, clusterB}, 100, 2)
	m1, err := Train(corpus, Config{Dim: 8, Epochs: 2, MinCount: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(corpus, Config{Dim: 8, Epochs: 2, MinCount: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := m1.Vector("好评")
	v2, _ := m2.Vector("好评")
	for d := range v1 {
		if v1[d] != v2[d] {
			t.Fatal("same seed produced different embeddings")
		}
	}
}

func TestCosineBounds(t *testing.T) {
	m := trainTestModel(t)
	for _, w := range m.Words() {
		s, err := m.Similarity("好评", w)
		if err != nil {
			t.Fatal(err)
		}
		if s < -1-1e-9 || s > 1+1e-9 || math.IsNaN(s) {
			t.Fatalf("Similarity(好评, %q) = %v out of [-1,1]", w, s)
		}
	}
}

func TestWordsOrderedByFrequency(t *testing.T) {
	m := trainTestModel(t)
	ws := m.Words()
	for i := 1; i < len(ws); i++ {
		if m.Count(ws[i]) > m.Count(ws[i-1]) {
			t.Fatal("Words() not ordered by descending frequency")
		}
	}
}

func TestSubsamplingStillClusters(t *testing.T) {
	// With heavy subsampling enabled, training still succeeds and the
	// cluster structure survives (function words lose occurrences, not
	// content words).
	corpus := clusterCorpus([][]string{clusterA, clusterB}, 600, 4)
	m, err := Train(corpus, Config{Dim: 16, Epochs: 5, MinCount: 2, SubsampleT: 1e-3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	within, err := m.Similarity("好评", "很好")
	if err != nil {
		t.Fatal(err)
	}
	across, err := m.Similarity("好评", "差评")
	if err != nil {
		t.Fatal(err)
	}
	if within <= across {
		t.Fatalf("subsampled: within %.3f <= across %.3f", within, across)
	}
}

func TestSubsamplingCanEmptyCorpus(t *testing.T) {
	// A pathological threshold far below every word's frequency drops
	// nearly everything; Train must fail cleanly, not hang or panic.
	corpus := [][]string{{"一", "一", "一", "一", "一", "一"}}
	_, err := Train(corpus, Config{MinCount: 1, SubsampleT: 1e-12, Seed: 6})
	if err == nil {
		// Occasionally a couple of tokens survive; that is fine too —
		// the property under test is "no panic, defined behavior".
		return
	}
	if !errors.Is(err, ErrEmptyCorpus) {
		t.Fatalf("err = %v, want ErrEmptyCorpus or success", err)
	}
}

var benchModel *Model

// BenchmarkTrain trains at the shape of the benchmark's model set-up:
// 4,000 synthetic comments segmented over the word bank (a vocabulary
// of about 1,000 words), default Config.
func BenchmarkTrain(b *testing.B) {
	seg := tokenize.NewSegmenter(textgen.NewBank().Vocabulary())
	var corpus [][]string
	for _, c := range synth.TrainingCorpus(4000, 19) {
		corpus = append(corpus, seg.Words(c))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Train(corpus, Config{})
		if err != nil {
			b.Fatal(err)
		}
		benchModel = m
	}
}

// TestNearestConcurrent: the first Nearest calls on a model, made from
// several goroutines at once, share one norm cache and agree.
func TestNearestConcurrent(t *testing.T) {
	trained := trainTestModel(t)
	want := trained.Nearest("好评", 5)
	// The same vectors behind a norm cache no call has filled yet.
	m := &Model{dim: trained.dim, vocab: trained.vocab, words: trained.words, counts: trained.counts, in: trained.in}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := m.Nearest("好评", 5)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("neighbor %d = %+v, want %+v", i, got[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
