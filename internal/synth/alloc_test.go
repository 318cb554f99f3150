package synth

import (
	"runtime"
	"testing"

	"repro/internal/ecom"
	"repro/internal/racetest"
)

// streamComments runs Stream over cfg, discarding the items, and
// returns how many comments it generated.
func streamComments(tb testing.TB, cfg Config) int {
	stats, err := Stream(cfg, func(*ecom.Item) error { return nil })
	if err != nil {
		tb.Fatal(err)
	}
	return stats.Comments
}

// TestStreamAllocationsPerItem: generation allocates per item, not per
// comment or word — an item of 40 comments costs at most a small
// constant more than one of 4.
func TestStreamAllocationsPerItem(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const items = 50
	perItem := func(comments int) float64 {
		// Fraud only, so every item has exactly this many comments.
		cfg := Config{
			Name: "a", Platform: "t", Seed: 3, FraudEvidence: items, Shops: 4,
			FraudCommentsMin: comments, FraudCommentsMax: comments,
		}
		return testing.AllocsPerRun(5, func() { streamComments(t, cfg) }) / items
	}
	few, many := perItem(4), perItem(40)
	if many > few+2 {
		t.Errorf("an item of 40 comments allocates %.1f times, of 4 comments %.1f: want at most 2 more", many, few)
	}
}

// TestStreamAllocationsPerComment bounds Stream's allocations per
// comment at the benchmark's item shape, the user-pool build included.
func TestStreamAllocationsPerComment(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	cfg := benchShape(2000, 9902)
	comments := streamComments(t, cfg)
	allocs := testing.AllocsPerRun(1, func() { streamComments(t, cfg) })
	if perComment := allocs / float64(comments); perComment > 4 {
		t.Errorf("Stream allocates %.1f times per comment, want <= 4", perComment)
	}
}

// BenchmarkStream times Stream at the benchmark's item shape: the
// generator throughput corpus-scale runs are sized by (comments/s) and
// its allocations per comment.
func BenchmarkStream(b *testing.B) {
	cfg := benchShape(2000, 9902)
	comments := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		comments += streamComments(b, cfg)
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(comments)/b.Elapsed().Seconds(), "comments/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(comments), "allocs/comment")
}
