// Package collect is the paper's data collector as one call: crawl a
// site's public pages into a dataset a cats.System can detect over. It
// is its own package so that what ships a model or serves one (cmd/cats,
// cmd/catsserve, through package cats) does not link an HTTP crawler.
package collect

import (
	"context"
	"time"

	"repro/internal/collector"
	"repro/internal/crawler"
	"repro/internal/ecom"
)

// Options tunes Collect's crawl.
type Options struct {
	// Workers is the concurrent fetcher count; <= 0 means 8.
	Workers int
	// RatePerSecond politely caps the request rate; <= 0 disables.
	RatePerSecond float64
	// Timeout bounds the whole crawl; <= 0 means no limit.
	Timeout time.Duration
}

// Collect crawls an e-commerce site's public pages (shop directory →
// items → comments) into a Dataset, deduplicating comment records. The
// site must speak the JSON page protocol of repro/internal/platform —
// the simulated stand-in for a real platform's public web pages.
func Collect(ctx context.Context, baseURL, name string, opts Options) (*ecom.Dataset, error) {
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	col := collector.New(baseURL, crawler.Config{
		Workers:       opts.Workers,
		RatePerSecond: opts.RatePerSecond,
	})
	res, err := col.Collect(ctx, name)
	if err != nil {
		return nil, err
	}
	return &res.Dataset, nil
}
