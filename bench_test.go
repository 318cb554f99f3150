package cats_test

// Benchmark harness: BenchmarkExperiments runs every entry of
// experiments.Table as a sub-benchmark (the same harnesses `catsbench`
// runs, at a reduced scale so the whole suite completes in minutes),
// plus micro-benchmarks for the hot paths: segmentation, feature
// extraction, sentiment scoring, boosted tree training/prediction and
// the word2vec SGD loop.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Paper-vs-measured numbers for each experiment are recorded in
// EXPERIMENTS.md.

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ecom"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/lexicon"
	"repro/internal/ml"
	"repro/internal/ml/gbt"
	"repro/internal/sentiment"
	"repro/internal/synth"
	"repro/internal/textgen"
	"repro/internal/tokenize"
	"repro/internal/word2vec"
)

var (
	benchOnce sync.Once
	benchLab  *experiments.Lab
)

func lab() *experiments.Lab {
	benchOnce.Do(func() {
		benchLab = experiments.NewLab(experiments.Config{
			D0Scale:        0.03,
			D1Scale:        0.001,
			EPlatScale:     0.001,
			SampleItems:    100,
			CorpusComments: 8000,
			PolarComments:  2000,
			Seed:           99,
		})
	})
	return benchLab
}

// BenchmarkExperiments runs each table entry as
// BenchmarkExperiments/<id> (e.g. -bench=Experiments/table6).
func BenchmarkExperiments(b *testing.B) {
	l := lab()
	for _, e := range experiments.Table {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(l, context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro-benchmarks for the pipeline's hot paths. ---

func benchComments(n int) []string {
	gen := textgen.NewGenerator(textgen.NewBank(), rand.New(rand.NewSource(5)))
	out := make([]string, n)
	for i := range out {
		out[i] = gen.Comment(textgen.FraudStyle())
	}
	return out
}

func BenchmarkSegmenter(b *testing.B) {
	seg := tokenize.NewSegmenter(textgen.NewBank().Vocabulary())
	comments := benchComments(256)
	var runes int
	for _, c := range comments {
		runes += tokenize.RuneLen(c)
	}
	b.SetBytes(int64(runes / len(comments)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = seg.Words(comments[i%len(comments)])
	}
}

// BenchmarkSegmenterAppend is BenchmarkSegmenter through the
// buffer-reusing append API — the zero-allocation hot path the fused
// detection pipeline runs on.
func BenchmarkSegmenterAppend(b *testing.B) {
	seg := tokenize.NewSegmenter(textgen.NewBank().Vocabulary())
	comments := benchComments(256)
	var runes int
	for _, c := range comments {
		runes += tokenize.RuneLen(c)
	}
	words := make([]string, 0, 256)
	b.SetBytes(int64(runes / len(comments)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		words = seg.WordsAppend(words[:0], comments[i%len(comments)])
	}
	_ = words
}

func benchExtractor(b *testing.B) (*features.Extractor, []ecom.Item) {
	b.Helper()
	bank := textgen.NewBank()
	texts, labels := synth.PolarCorpus(1000, 6)
	analyzer, err := core.OracleAnalyzer(bank.Vocabulary(), bank.PositiveForms(), bank.Negative, texts, labels)
	if err != nil {
		b.Fatal(err)
	}
	u := synth.Generate(synth.Config{
		Name: "bench", Seed: 7, FraudEvidence: 128, Normal: 128, Shops: 8,
	})
	return analyzer.Extractor(), u.Dataset.Items
}

func BenchmarkFeatureVector(b *testing.B) {
	ex, items := benchExtractor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ex.Vector(&items[i%len(items)])
	}
}

func BenchmarkFeatureExtractParallel(b *testing.B) {
	ex, items := benchExtractor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ex.ExtractDataset(items, nil, 0)
	}
}

// BenchmarkVectorSignal measures the fused filter+features entry point
// the detector scores through — one word-ID kernel pass per comment on
// pooled scratch, one allocation (the returned vector) per item. It
// sizes the kernel on its own: ns/comment here is what the benchmark
// reports as tokenize.segment_ns_per_comment plus
// features.vector_ns_per_comment.
func BenchmarkVectorSignal(b *testing.B) {
	ex, items := benchExtractor(b)
	comments := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := &items[i%len(items)]
		_, _ = ex.VectorSignal(it)
		comments += len(it.Comments)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(comments), "ns/comment")
}

// BenchmarkDetectBatch1024 scores one DetectStream-sized batch (1,024
// items, every one of them analyzed) with workers = GOMAXPROCS. Run it
// with -cpu 1,2: the ratio between the two rows is what the batch
// fan-out delivers, with no socket and no file in the way.
func BenchmarkDetectBatch1024(b *testing.B) {
	det, _ := benchFilterHeavyDetector(b)
	u := synth.Generate(synth.Config{
		Name: "batch", Seed: 32, FraudEvidence: 24, Normal: 1000, Shops: 12,
	})
	items := u.Dataset.Items[:1024]
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := det.DetectWithFeatures(ctx, items, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(items)), "ns/item")
}

func BenchmarkSentimentScore(b *testing.B) {
	bank := textgen.NewBank()
	seg := tokenize.NewSegmenter(bank.Vocabulary())
	texts, labels := synth.PolarCorpus(1000, 8)
	docs := make([][]string, len(texts))
	for i, t := range texts {
		docs[i] = seg.Words(t)
	}
	m, err := sentiment.Train(docs, labels)
	if err != nil {
		b.Fatal(err)
	}
	words := seg.Words(benchComments(1)[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Score(words)
	}
}

func benchMLDataset(n int) *ml.Dataset {
	rng := rand.New(rand.NewSource(9))
	ds := &ml.Dataset{FeatureNames: features.Names}
	for i := 0; i < n; i++ {
		row := make([]float64, features.NumFeatures)
		for j := range row {
			row[j] = rng.NormFloat64() + float64(i%2)
		}
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, i%2)
	}
	return ds
}

func BenchmarkGBTTrain(b *testing.B) {
	ds := benchMLDataset(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf := gbt.New(gbt.Config{Rounds: 50, MaxDepth: 4, Seed: 1})
		if err := clf.Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGBTPredict(b *testing.B) {
	ds := benchMLDataset(2000)
	clf := gbt.New(gbt.Config{Rounds: 100, MaxDepth: 4, Seed: 1})
	if err := clf.Fit(ds); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = clf.PredictProba(ds.X[i%len(ds.X)])
	}
}

// BenchmarkGBTPredictBatch scores the whole dataset through the
// flattened ensemble's batch API — the path core.scoreBatch takes.
func BenchmarkGBTPredictBatch(b *testing.B) {
	ds := benchMLDataset(2000)
	clf := gbt.New(gbt.Config{Rounds: 100, MaxDepth: 4, Seed: 1})
	if err := clf.Fit(ds); err != nil {
		b.Fatal(err)
	}
	out := make([]float64, len(ds.X))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = clf.PredictProbaBatch(ds.X, out)
	}
}

func BenchmarkWord2VecTrain(b *testing.B) {
	bank := textgen.NewBank()
	seg := tokenize.NewSegmenter(bank.Vocabulary())
	corpus := synth.TrainingCorpus(2000, 10)
	sentences := make([][]string, len(corpus))
	for i, c := range corpus {
		sentences[i] = seg.Words(c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := word2vec.Train(sentences, word2vec.Config{Dim: 16, Epochs: 1, MinCount: 3, Seed: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLexiconExpand(b *testing.B) {
	bank := textgen.NewBank()
	seg := tokenize.NewSegmenter(bank.Vocabulary())
	corpus := synth.TrainingCorpus(4000, 11)
	sentences := make([][]string, len(corpus))
	for i, c := range corpus {
		sentences[i] = seg.Words(c)
	}
	m, err := word2vec.Train(sentences, word2vec.Config{Dim: 16, Epochs: 2, MinCount: 3, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lexicon.Expand(m, core.DefaultPositiveSeeds, lexicon.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSyntheticGeneration(b *testing.B) {
	cfg := synth.Config{Name: "bench", Seed: 12, FraudEvidence: 100, Normal: 400, Shops: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = synth.Generate(cfg)
	}
}

// benchFilterHeavyDetector builds a trained detector plus a synthetic
// workload where ≥50% of items sit below the stage-one sales cutoff —
// the deployment-shaped traffic profile where skipping feature
// extraction for filtered items pays off.
func benchFilterHeavyDetector(b *testing.B) (*core.Detector, []ecom.Item) {
	b.Helper()
	bank := textgen.NewBank()
	texts, labels := synth.PolarCorpus(1000, 6)
	analyzer, err := core.OracleAnalyzer(bank.Vocabulary(), bank.PositiveForms(), bank.Negative, texts, labels)
	if err != nil {
		b.Fatal(err)
	}
	det := core.NewDetector(analyzer, core.DetectorConfig{})
	train := synth.Generate(synth.Config{
		Name: "fh-train", Seed: 30, FraudEvidence: 100, Normal: 160, Shops: 8,
	})
	if err := det.Train(&train.Dataset, 0); err != nil {
		b.Fatal(err)
	}
	u := synth.Generate(synth.Config{
		Name: "fh-detect", Seed: 31, FraudEvidence: 96, Normal: 288, Shops: 10,
	})
	items := make([]ecom.Item, len(u.Dataset.Items))
	copy(items, u.Dataset.Items)
	for i := range items {
		if i%2 == 0 {
			items[i].SalesVolume = 1 // below the default cutoff of 5
		}
	}
	return det, items
}

func BenchmarkDetectFilterHeavy(b *testing.B) {
	det, items := benchFilterHeavyDetector(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Detect(items, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectStreamFilterHeavy(b *testing.B) {
	det, items := benchFilterHeavyDetector(b)
	var buf bytes.Buffer
	w := dataset.NewWriter(&buf)
	for i := range items {
		if err := w.Write(&items[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := dataset.NewReader(bytes.NewReader(buf.Bytes()))
		_, err := det.DetectStream(context.Background(), r, core.StreamOptions{BatchSize: 128},
			func(*ecom.Item, core.Detection) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectStreamColumnar streams a columnar corpus of three
// default-size batches through DetectStream, so the read, score and
// emit stages overlap; it reports comments/s. Run it with -cpu 1,2: one
// processor shows what the stages cost when nothing can overlap.
func BenchmarkDetectStreamColumnar(b *testing.B) {
	det, _ := benchFilterHeavyDetector(b)
	u := synth.Generate(synth.Config{
		Name: "col-detect", Seed: 32, FraudEvidence: 64, Normal: 3008, Shops: 24,
	})
	var buf bytes.Buffer
	w := dataset.NewWriterFormat(&buf, dataset.FormatColumnar)
	comments := 0
	for i := range u.Dataset.Items {
		comments += len(u.Dataset.Items[i].Comments)
		if err := w.Write(&u.Dataset.Items[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := dataset.NewReader(bytes.NewReader(buf.Bytes()))
		_, err := det.DetectStream(context.Background(), r, core.StreamOptions{},
			func(*ecom.Item, core.Detection) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(comments)*float64(b.N)/b.Elapsed().Seconds(), "comments/s")
}

func BenchmarkGBTTrainParallel(b *testing.B) {
	ds := benchMLDataset(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf := gbt.New(gbt.Config{Rounds: 50, MaxDepth: 4, Seed: 1, Workers: 8})
		if err := clf.Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}
