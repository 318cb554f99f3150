package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"

	"repro/internal/collector"
	"repro/internal/crawler"
	"repro/internal/platform"
)

// EPlatformResult is the end-to-end Section IV experiment: crawl the
// second platform's public pages, run the D0-pretrained detector, and
// audit a sample of the reported fraud items against ground truth
// (standing in for the paper's expert panel).
type EPlatformResult struct {
	ItemsCollected    int
	CommentsCollected int
	CrawlStats        crawler.Stats
	Reported          int // fraud items reported by CATS (paper: 10,720)
	AuditSample       int // sampled reports audited (paper: 1,000)
	AuditConfirmed    int // confirmed fraudulent (paper: 960)
	AuditPrecision    float64
	// Recall against the universe's hidden ground truth — unavailable
	// to the paper (no labels on E-platform) but measurable here.
	TrueRecall float64
}

// EPlatform runs the full pipeline: simulated site → crawler →
// detector → audit, at the high-confidence reporting threshold
// (EPlatThreshold).
func (l *Lab) EPlatform(ctx context.Context) (fmt.Stringer, error) {
	det, err := l.EPlatSystem()
	if err != nil {
		return nil, err
	}
	ep := l.EPlat()
	srv := platform.New(ep, platform.Options{PageSize: 50})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	col := collector.New(ts.URL, crawler.Config{Workers: 8})
	crawlRes, err := col.Collect(ctx, "E-platform")
	if err != nil {
		return nil, fmt.Errorf("eplatform: crawl: %w", err)
	}
	res := &EPlatformResult{
		ItemsCollected: len(crawlRes.Dataset.Items),
		CrawlStats:     crawlRes.CrawlStats,
	}
	for i := range crawlRes.Dataset.Items {
		res.CommentsCollected += len(crawlRes.Dataset.Items[i].Comments)
	}

	dets, err := det.DetectContext(ctx, crawlRes.Dataset.Items, 0)
	if err != nil {
		return nil, err
	}
	truth := map[string]bool{}
	totalFraud := 0
	for i := range ep.Dataset.Items {
		isFraud := ep.Dataset.Items[i].Label.IsFraud()
		truth[ep.Dataset.Items[i].ID] = isFraud
		if isFraud {
			totalFraud++
		}
	}
	var reported []string
	for i, d := range dets {
		if d.IsFraud {
			reported = append(reported, crawlRes.Dataset.Items[i].ID)
		}
	}
	res.Reported = len(reported)

	// Audit: sample up to 1,000 reported items and check ground truth,
	// the role the paper's anti-fraud experts played.
	rng := rand.New(rand.NewSource(31 + l.cfg.Seed))
	rng.Shuffle(len(reported), func(i, j int) { reported[i], reported[j] = reported[j], reported[i] })
	sample := reported
	if len(sample) > 1000 {
		sample = sample[:1000]
	}
	res.AuditSample = len(sample)
	for _, id := range sample {
		if truth[id] {
			res.AuditConfirmed++
		}
	}
	if res.AuditSample > 0 {
		res.AuditPrecision = float64(res.AuditConfirmed) / float64(res.AuditSample)
	}
	hits := 0
	for _, id := range reported {
		if truth[id] {
			hits++
		}
	}
	if totalFraud > 0 {
		res.TrueRecall = float64(hits) / float64(totalFraud)
	}
	return res, nil
}

// String prints the Section IV reproduction.
func (r *EPlatformResult) String() string {
	var b strings.Builder
	b.WriteString("E-platform end-to-end (crawl → detect → audit)\n")
	fmt.Fprintf(&b, "  crawled %d items / %d comments (%d fetches, %d retries, %d dup-suppressed)\n",
		r.ItemsCollected, r.CommentsCollected, r.CrawlStats.Fetched, r.CrawlStats.Retries, r.CrawlStats.Duplicates)
	fmt.Fprintf(&b, "  reported fraud items: %d (paper: 10,720 at full scale)\n", r.Reported)
	fmt.Fprintf(&b, "  audited %d, confirmed %d → precision %.2f (paper: 1000/960 → 0.96)\n",
		r.AuditSample, r.AuditConfirmed, r.AuditPrecision)
	fmt.Fprintf(&b, "  recall vs hidden ground truth: %.2f\n", r.TrueRecall)
	return b.String()
}
