// Crossplatform reproduces the paper's headline scenario end to end:
// train CATS on platform A's labeled data, then crawl a *different*
// platform's public pages over HTTP, detect fraud items there, and
// audit a sample of the reports — all without any platform-B labels.
//
//	go run ./examples/crossplatform
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"repro"
	"repro/collect"
	"repro/internal/platform"
	"repro/internal/synth"
	"repro/internal/textgen"
)

func main() {
	ctx := context.Background()

	// --- Platform A (Taobao stand-in): train on labeled data. ---
	bank := textgen.NewBank()
	polarTexts, polarLabels := synth.PolarCorpus(2500, 11)
	d0 := synth.Generate(synth.Config{
		Name: "A/D0", Platform: "taobao", Seed: 12,
		FraudEvidence: 350, FraudManual: 50, Normal: 600, Shops: 25,
	})
	cfg := cats.DefaultConfig()
	cfg.Detector.Threshold = 0.9 // high-confidence third-party reporting
	sys, err := cats.Train(ctx, cats.TrainingInput{
		Corpus:      synth.TrainingCorpus(8000, 13),
		PolarTexts:  polarTexts,
		PolarLabels: polarLabels,
		Vocabulary:  bank.Vocabulary(),
		Labeled:     &d0.Dataset,
	}, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("trained on platform A's labeled dataset")

	// --- Platform B (E-platform stand-in): serve its public pages. ---
	b := synth.Generate(synth.Config{
		Name: "B", Platform: "eplat", Seed: 14,
		FraudEvidence: 60, Normal: 900, Shops: 30,
		StyleJitter:        0.12, // platform drift
		SubtleFraud:        0.15,
		DeepCoverFraud:     0.05,
		EnthusiasticNormal: 0.015,
	})
	site := platform.New(b, platform.Options{PageSize: 40, Latency: time.Millisecond})
	ts := httptest.NewServer(site.Handler())
	defer ts.Close()
	fmt.Printf("platform B live at %s (%d shops)\n", ts.URL, site.NumShops())

	// --- Crawl B's shop → item → comment pages politely. ---
	start := time.Now()
	collected, err := collect.Collect(ctx, ts.URL, "platform-B", collect.Options{
		Workers:       8,
		RatePerSecond: 500,
	})
	if err != nil {
		log.Fatal(err)
	}
	comments := 0
	for i := range collected.Items {
		comments += len(collected.Items[i].Comments)
	}
	fmt.Printf("crawled %d items / %d comments in %v (%d requests served)\n",
		len(collected.Items), comments, time.Since(start).Round(time.Millisecond), site.Requests())

	// --- Detect fraud on the crawled data. ---
	dets, err := sys.Detect(collected.Items)
	if err != nil {
		log.Fatal(err)
	}
	truth := map[string]bool{}
	for i := range b.Dataset.Items {
		truth[b.Dataset.Items[i].ID] = b.Dataset.Items[i].Label.IsFraud()
	}
	var reported, confirmed, totalFraud int
	for _, t := range truth {
		if t {
			totalFraud++
		}
	}
	for i, d := range dets {
		if d.IsFraud {
			reported++
			if truth[collected.Items[i].ID] {
				confirmed++
			}
		}
	}
	fmt.Printf("reported %d fraud items on platform B\n", reported)
	fmt.Printf("audit against hidden ground truth: precision %.2f, recall %.2f\n",
		float64(confirmed)/float64(reported), float64(confirmed)/float64(totalFraud))
	fmt.Println("(the paper's expert audit on E-platform confirmed 96% of a 1,000-item sample)")
}
