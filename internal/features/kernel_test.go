package features

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/ecom"
	"repro/internal/lexicon"
	"repro/internal/sentiment"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/tokenize"
)

// oracleVectorSignal is the analysis pass as it ran before the word-ID
// kernel, kept verbatim as the differential oracle: Token records with
// their text, a lexicon map lookup per word (two more per 2-gram), the
// string-keyed sentiment.Model.Score and stats.EntropyOfWords, and a
// map for the item's distinct words. The kernel must reproduce its
// vector bit for bit and its stage-one decision exactly.
func oracleVectorSignal(e *Extractor, it *ecom.Item) ([]float64, bool) {
	var a ItemAnalysis
	uniq := map[string]struct{}{}
	for i := range it.Comments {
		var ca CommentAnalysis
		var words []string
		for _, t := range e.seg.SegmentAll(it.Comments[i].Content) {
			ca.RuneLength += t.Runes
			switch t.Kind {
			case tokenize.KindWord:
				words = append(words, t.Text)
			case tokenize.KindPunct:
				ca.PunctCount++
			}
		}
		freq := map[string]int{}
		for wi, w := range words {
			if e.pos.Contains(w) {
				ca.PositiveHits++
			}
			if e.neg.Contains(w) {
				ca.NegativeHits++
			}
			if wi+1 < len(words) && (e.pos.Contains(w) || e.pos.Contains(words[wi+1])) {
				ca.PositiveGrams++
			}
			freq[w]++
			uniq[w] = struct{}{}
		}
		ca.DistinctWords = len(freq)
		ca.Entropy = stats.EntropyOfWords(words)
		ca.Sentiment = e.sent.Score(words)
		a.accumulate(&ca, len(words))
	}
	a.distinctWords = len(uniq)
	return a.Vector(), a.hasPositive
}

// kernelExtractor builds an extractor whose models reach every branch
// of the word table: one-rune dictionary words, Latin and digit
// dictionary words, lexicon and sentiment words the dictionary does not
// hold (single runes, Latin and digit runs — what training text can
// produce — and strings no token can ever equal), and a word in both
// lexicons.
func kernelExtractor(t testing.TB, extraVocab ...string) *Extractor {
	t.Helper()
	vocab := append([]string{
		"很好", "满意", "太差", "质量", "物流", "不错", "好", "差", "很",
		"质量不错", "ok", "5", "好�评",
	}, extraVocab...)
	seg := tokenize.NewSegmenter(vocab)
	pos := lexicon.NewSet([]string{"很好", "满意", "不错", "好", "赞", "good", "666", "不存在的词", "很\xff", "both"})
	neg := lexicon.NewSet([]string{"太差", "差", "烂", "bad", "404", "both", ""})
	sent, err := sentiment.Train(
		[][]string{
			{"很好", "满意", "赞", "good", "质量"}, {"不错", "好", "666", "ok"},
			{"太差", "烂", "bad", "质量"}, {"差", "差", "404", "物流", "仅负"},
		},
		[]int{1, 1, 0, 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	return NewExtractor(seg, pos, neg, sent)
}

// checkKernel compares the word-ID kernel with the string/map oracle on
// one item: all 11 features bit for bit, the filter decision through
// both entry points, and the number of segmentation passes.
func checkKernel(t *testing.T, e *Extractor, it *ecom.Item) {
	t.Helper()
	p0 := e.seg.Segmentations()
	want, wantSignal := oracleVectorSignal(e, it)
	oraclePasses := e.seg.Segmentations() - p0

	p0 = e.seg.Segmentations()
	got, gotSignal := e.VectorSignal(it)
	if passes := e.seg.Segmentations() - p0; passes != oraclePasses {
		t.Fatalf("kernel ran %d segmentation passes, oracle %d", passes, oraclePasses)
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("feature %s: kernel %v (%#x) != oracle %v (%#x)\nitem: %q",
				Names[j], got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]), it.Comments)
		}
	}
	if gotSignal != wantSignal {
		t.Fatalf("VectorSignal signal %v, oracle %v\nitem: %q", gotSignal, wantSignal, it.Comments)
	}
	if got := e.HasPositiveSignal(it); got != wantSignal {
		t.Fatalf("HasPositiveSignal %v, oracle %v\nitem: %q", got, wantSignal, it.Comments)
	}
	a := e.AnalyzeItem(it)
	for j, v := range a.Vector() {
		if math.Float64bits(v) != math.Float64bits(want[j]) {
			t.Fatalf("AnalyzeItem feature %s: %v != oracle %v", Names[j], v, want[j])
		}
	}
	for i := range a.Comments {
		words := e.seg.Words(it.Comments[i].Content)
		if strings.Join(a.Comments[i].Words, "\x00") != strings.Join(words, "\x00") {
			t.Fatalf("AnalyzeItem comment %d words %q, segmenter %q", i, a.Comments[i].Words, words)
		}
	}
}

// FuzzAnalyzeDifferential pins the word-ID kernel to the string/map
// oracle on arbitrary bytes: three comments per item so transient IDs
// and the item-level distinct count cross comment boundaries.
func FuzzAnalyzeDifferential(f *testing.F) {
	e := kernelExtractor(f)
	for _, seed := range [][3]string{
		{"很好，满意！", "", "质量太差。"},
		{"", "", ""},
		{"！！！，，，", "   \t\n  ", "～☆★"},
		{"abc123 DEF456", "good bad both ok okay 5 55 666 404", "Good GOOD"},
		{"好好好差差很", "赞赞烂", "仅负仅正"},
		{"好\xff评", "好�评 很\xff", "\xe4\xb8\xe5\xa5"},
		{"质量不错质量不", "不存在的词", "新词新词 新词"},
		{"生生生僻僻字", "僻字生", "x y z x"},
		{"３．１４ １２３ ①②③", "五５5", "很好很好很好"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, a, b, c string) {
		checkKernel(t, e, item(a, b, c))
		checkKernel(t, e, item(c))
	})
}

// TestKernelMatchesOracleOnSyntheticItems runs the same differential
// over generated items against the full synthetic vocabulary.
func TestKernelMatchesOracleOnSyntheticItems(t *testing.T) {
	e := synthExtractor(t)
	u := synth.Generate(synth.Config{Name: "kernel", Seed: 45, FraudEvidence: 40, Normal: 40, Shops: 4})
	for i := range u.Dataset.Items {
		checkKernel(t, e, &u.Dataset.Items[i])
	}
}

// aliases reports whether s shares backing bytes with text.
func aliases(s, text string) bool {
	if len(s) == 0 || len(text) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(text)))
	return p >= lo && p < lo+uintptr(len(text))
}

// TestScratchHoldsNoInputAfterItem: once an item is done, nothing in
// the scratch that goes back to the pool references its text — the
// transient index is empty (slots zeroed, not just unlisted) and token
// records are offsets and IDs. The item is all words outside the table
// so every one of them passes through the transient index.
func TestScratchHoldsNoInputAfterItem(t *testing.T) {
	e := kernelExtractor(t)
	text := strings.Repeat("生僻字 unknown 9999 ", 40)
	it := item(text, text[:len(text)/2])
	sc := &scratch{}
	if _, _ = e.vectorSignalTexts(sc, sc.gather(it)); len(sc.transient.used) != 0 {
		t.Fatalf("transient index still lists %d words after the item", len(sc.transient.used))
	}
	if len(sc.transient.slots) == 0 {
		t.Fatal("item never reached the transient index; the test is vacuous")
	}
	for i, s := range sc.transient.slots {
		if s != (wordSlot{}) {
			t.Fatalf("transient slot %d = %+v after the item, want zero", i, s)
		}
		if aliases(s.key, text) {
			t.Fatalf("transient slot %d still aliases the input", i)
		}
	}
	if len(sc.texts) != 0 {
		t.Fatalf("scratch still lists %d comment texts after the item", len(sc.texts))
	}
	for i, s := range sc.texts[:cap(sc.texts)] {
		if s != "" {
			t.Fatalf("scratch text %d still references the input after the item", i)
		}
	}
	// scratch has exactly two fields that can hold a string; the rest is
	// integers. A new string-bearing field must come with its own reset.
	var _ struct {
		toks      []tokenize.WordToken
		cells     []wordCell
		touched   []int32
		counts    []int32
		transient wordIndex
		texts     []string
		epoch     uint32
		itemStart uint32
		distinct  int
	} = *sc
	var _ struct {
		Start, End int
		ID         int32
	} = tokenize.WordToken{}
}

// TestScratchSharedAcrossExtractors alternates two extractors with
// different dictionaries (so the same ID means different words, and one
// table is much larger than the other) through one scratch on one
// goroutine, then pushes the scratch's epoch to the brink of
// wrap-around and does it again: ID-indexed state must never be read
// as if the current comment had written it.
func TestScratchSharedAcrossExtractors(t *testing.T) {
	small := kernelExtractor(t)
	var filler []string
	for r := rune(0x5000); r < 0x5400; r++ {
		filler = append(filler, string([]rune{r, r + 1}))
	}
	large := kernelExtractor(t, filler...)
	items := []*ecom.Item{
		item("很好很好 生僻 生僻 good", "质量不错 ok ok 666", "好差好差"),
		item(strings.Join(filler[:64], ""), filler[3]+filler[3]+"新词", "新词 很好"),
		item("x y z x y z", "", "x"),
		item(),
	}
	run := func(sc *scratch) {
		t.Helper()
		for round := 0; round < 3; round++ {
			for _, it := range items {
				for _, e := range []*Extractor{small, large} {
					want, wantSignal := oracleVectorSignal(e, it)
					got, signal := e.vectorSignalTexts(sc, sc.gather(it))
					for j := range want {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("epoch %d, feature %s: shared scratch %v != oracle %v", sc.epoch, Names[j], got[j], want[j])
						}
					}
					if signal != wantSignal {
						t.Fatalf("epoch %d: signal %v disagrees with oracle", sc.epoch, signal)
					}
				}
			}
		}
	}
	sc := &scratch{}
	run(sc)

	// Every comment bumps the epoch; start so close to the top that the
	// run crosses it several times over.
	sc.epoch = math.MaxUint32 - 4
	for i := range sc.cells {
		sc.cells[i].stamp = sc.epoch - uint32(i%5) // residue from the last few comments
	}
	run(sc)
	if sc.epoch > 1<<20 {
		t.Fatalf("epoch %d: the run never wrapped", sc.epoch)
	}
}
