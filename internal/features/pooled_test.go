package features

import (
	"math"
	"testing"

	"repro/internal/ecom"
	"repro/internal/racetest"
	"repro/internal/synth"
)

// projected is the item as a projected read hands it out: its comments'
// contents as Texts, no Comments.
func projected(it *ecom.Item) *ecom.Item {
	twin := *it
	twin.Texts, twin.Comments = it.AppendTexts(nil), nil
	return &twin
}

// TestVectorSignalMatchesAnalyzeItem: the pooled no-retention path must
// produce the same vector (bit-for-bit) and the same stage-one decision
// as the retaining AnalyzeItem path on every item — and every entry
// answers an item's projected twin as it answers the row.
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
		for shape, it := range map[string]*ecom.Item{"row": &items[i], "projected": projected(&items[i])} {
			gotV, gotSig := e.VectorSignal(it)
			if gotSig != wantSig || e.HasPositiveSignal(it) != wantSig {
				t.Fatalf("item %d, %s: VectorSignal signal %v, HasPositiveSignal %v, AnalyzeItem %v",
					i, shape, gotSig, e.HasPositiveSignal(it), wantSig)
			}
			for name, v := range map[string][]float64{"VectorSignal": gotV, "Vector": e.Vector(it), "AnalyzeItem": e.AnalyzeItem(it).Vector()} {
				for j := range wantV {
					if math.Float64bits(v[j]) != math.Float64bits(wantV[j]) {
						t.Fatalf("item %d, %s, feature %s: %s %v != AnalyzeItem of the row %v", i, shape, Names[j], name, v[j], wantV[j])
					}
				}
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
	if racetest.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	e := synthExtractor(t)
	it := item("很好，满意！五星好评。", "质量不错物流很快", "好评好评好评")
	twin := projected(it)
	for _, c := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"VectorSignal", 2, func() { _, _ = e.VectorSignal(it) }},
		{"VectorSignal, projected", 2, func() { _, _ = e.VectorSignal(twin) }},
		// The analysis, its Comments slice and one Words per comment;
		// like the rows above, one to spare.
		{"AnalyzeItem", float64(2 + len(it.Comments) + 1), func() { _ = e.AnalyzeItem(it) }},
		{"AnalyzeComment", 2, func() { _ = e.AnalyzeComment(twin.Texts[0]) }},
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
	if racetest.Enabled {
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
