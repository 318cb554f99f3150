package features

import (
	"math"
	"testing"

	"repro/internal/synth"
)

// TestVectorSignalMatchesAnalyzeItem: the pooled no-retention path must
// produce the same vector (bit-for-bit) and the same stage-one decision
// as the retaining AnalyzeItem path on every item.
func TestVectorSignalMatchesAnalyzeItem(t *testing.T) {
	e := synthExtractor(t)
	u := synth.Generate(synth.Config{
		Name: "pooled", Seed: 44, FraudEvidence: 50, Normal: 50, Shops: 5,
	})
	items := u.Dataset.Items
	items = append(items,
		*item(),
		*item(""),
		*item("！！！，，，"),
		*item("很好很好很好"),
		*item("很好，满意！", "", "质量太差。"),
	)
	for i := range items {
		a := e.AnalyzeItem(&items[i])
		wantV, wantSig := a.Vector(), a.HasPositiveSignal()
		gotV, gotSig := e.VectorSignal(&items[i])
		if gotSig != wantSig {
			t.Fatalf("item %d: VectorSignal signal %v, AnalyzeItem %v", i, gotSig, wantSig)
		}
		// The same item as a column of its comments' contents.
		var texts []string
		for _, c := range items[i].Comments {
			texts = append(texts, c.Content)
		}
		textsV, textsSig := e.VectorSignalTexts(texts)
		if textsSig != wantSig {
			t.Fatalf("item %d: VectorSignalTexts signal %v, AnalyzeItem %v", i, textsSig, wantSig)
		}
		for j := range wantV {
			if gotV[j] != wantV[j] || math.Float64bits(textsV[j]) != math.Float64bits(wantV[j]) {
				t.Fatalf("item %d feature %s: VectorSignal %v, VectorSignalTexts %v != AnalyzeItem %v",
					i, Names[j], gotV[j], textsV[j], wantV[j])
			}
		}
	}
}

// TestVectorSignalSegmentsOncePerComment: pooling must not change the
// exactly-once segmentation accounting.
func TestVectorSignalSegmentsOncePerComment(t *testing.T) {
	e := synthExtractor(t)
	it := item("很好，满意！", "质量太差。", "好评好评", "")
	before := e.seg.Segmentations()
	_, _ = e.VectorSignal(it)
	if got, want := e.seg.Segmentations()-before, int64(len(it.Comments)); got != want {
		t.Fatalf("VectorSignal ran %d segmentation passes for %d comments", got, want)
	}
}

// TestVectorSignalAllocations: once the scratch pool is warm, every
// entry that takes a scratch from it allocates only what it returns —
// the fused paths their 11-float vector, the retaining paths their
// analysis and each comment's Words. A Get whose scratch never goes
// back shows here as a fresh scratch (struct, tokens, cells, counts:
// five allocations and more) on every call. The bounds tolerate a pool
// miss under parallel test runs but not a per-call or per-comment
// allocation.
func TestVectorSignalAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	e := synthExtractor(t)
	it := item("很好，满意！五星好评。", "质量不错物流很快", "好评好评好评")
	texts := []string{it.Comments[0].Content, it.Comments[1].Content, it.Comments[2].Content}
	for _, c := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"VectorSignal", 2, func() { _, _ = e.VectorSignal(it) }},
		{"VectorSignalTexts", 2, func() { _, _ = e.VectorSignalTexts(texts) }},
		// The analysis, its Comments slice and one Words per comment;
		// like the rows above, one to spare.
		{"AnalyzeItem", float64(2 + len(it.Comments) + 1), func() { _ = e.AnalyzeItem(it) }},
		{"AnalyzeComment", 2, func() { _ = e.AnalyzeComment(texts[0]) }},
	} {
		c.run() // warm the pool
		if allocs := testing.AllocsPerRun(200, c.run); allocs > c.max {
			t.Errorf("%s allocated %.1f times per call, want <= %.0f", c.name, allocs, c.max)
		}
	}
}

// TestHasPositiveSignalAllocations: the filter-only fast path reuses
// pooled word buffers and must stay allocation-free when warm.
func TestHasPositiveSignalAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	e := synthExtractor(t)
	it := item("质量一般。", "物流太差", "很好很好")
	_ = e.HasPositiveSignal(it) // warm the pool
	allocs := testing.AllocsPerRun(200, func() {
		_ = e.HasPositiveSignal(it)
	})
	if allocs > 0 {
		t.Fatalf("HasPositiveSignal allocated %.1f times per item, want 0", allocs)
	}
}
