// Serving demonstrates the deployment path of Section VI: train once,
// save the model, serve it over HTTP, and have a platform's pipeline
// POST item batches for verdicts — the shape in which Taobao
// "partially incorporated CATS".
//
//	go run ./examples/serving
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/textgen"
)

func main() {
	// 1. Train and persist a system.
	bank := textgen.NewBank()
	polarTexts, polarLabels := synth.PolarCorpus(2000, 31)
	d0 := synth.Generate(synth.Config{
		Name: "D0", Seed: 32,
		FraudEvidence: 250, FraudManual: 50, Normal: 400, Shops: 20,
	})
	sys, err := cats.Train(context.Background(), cats.TrainingInput{
		Corpus:      synth.TrainingCorpus(6000, 33),
		PolarTexts:  polarTexts,
		PolarLabels: polarLabels,
		Vocabulary:  bank.Vocabulary(),
		Labeled:     &d0.Dataset,
	}, cats.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "cats-serving")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	modelPath := filepath.Join(dir, "model.json")
	if err := sys.SaveFile(modelPath, bank.Vocabulary()); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(modelPath)
	fmt.Printf("saved model: %s (%d KB)\n", modelPath, info.Size()/1024)

	// 2. Load the model in a "different process" and serve it.
	f, err := os.Open(modelPath)
	if err != nil {
		log.Fatal(err)
	}
	snap, err := core.ReadSnapshot(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	det, analyzer, err := core.DetectorFromSnapshot(snap)
	if err != nil {
		log.Fatal(err)
	}
	reg := registry.New(registry.Options{
		// Production shape (DESIGN.md §11): concurrent detect requests
		// coalesce into fused scoring batches behind a bounded queue.
		Batching: &dispatch.Options{MaxBatch: 64, MaxWait: 2 * time.Millisecond},
	})
	if _, err := reg.Install(context.Background(), service.DefaultTenant, "model.json", det, analyzer); err != nil {
		log.Fatal(err)
	}
	// /v1/drift measures traffic against the training sample the
	// snapshot carries.
	srv := service.NewWithRegistry(reg, service.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("detection service live at %s (batching on)\n", ts.URL)

	// 3. The platform pipeline POSTs item batches.
	batch := synth.Generate(synth.Config{
		Name: "today", Seed: 34,
		FraudEvidence: 15, Normal: 85, Shops: 8,
	})
	body, err := json.Marshal(service.DetectRequest{Items: batch.Dataset.Items})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out service.DetectResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	truth := map[string]bool{}
	for i := range batch.Dataset.Items {
		truth[batch.Dataset.Items[i].ID] = batch.Dataset.Items[i].Label.IsFraud()
	}
	confirmed := 0
	for _, d := range out.Detections {
		if d.IsFraud && truth[d.ItemID] {
			confirmed++
		}
	}
	fmt.Printf("batch of %d items → %d reported, %d confirmed against ground truth\n",
		len(out.Detections), out.Reported, confirmed)

	// 4. Platform traffic is concurrent and repetitive: many pipeline
	// shards ask about the same trending items at once. The dispatcher
	// coalesces the burst into a handful of fused batches and scores
	// each distinct item once.
	hot := batch.Dataset.Items[:4]
	var wg sync.WaitGroup
	for c := 0; c < 24; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			one, _ := json.Marshal(service.DetectRequest{Items: hot[c%len(hot) : c%len(hot)+1]})
			r, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(one))
			if err != nil {
				log.Fatal(err)
			}
			r.Body.Close()
		}(c)
	}
	wg.Wait()
	fmt.Printf("burst: 24 concurrent single-item requests over %d hot items coalesced by the batcher\n", len(hot))

	// 5. Inspect the served model.
	ir, err := http.Get(ts.URL + "/v1/importance")
	if err != nil {
		log.Fatal(err)
	}
	defer ir.Body.Close()
	var imp service.ImportanceResponse
	if err := json.NewDecoder(ir.Body).Decode(&imp); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top features by split count: %s, %s, %s\n",
		imp.Features[0].Feature, imp.Features[1].Feature, imp.Features[2].Feature)

	// 6. Monitor drift: compare scored traffic against the model's
	// shipped training baseline.
	dr, err := http.Get(ts.URL + "/v1/drift")
	if err != nil {
		log.Fatal(err)
	}
	defer dr.Body.Close()
	var drift service.DriftResponse
	if err := json.NewDecoder(dr.Body).Decode(&drift); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("drift after %d scored items: max per-feature KS %.3f (alert if it climbs)\n",
		drift.ItemsObserved, drift.MaxKS)

	// 7. Scrape the Prometheus endpoint the way a monitoring stack
	// would, and pull out the pipeline's own accounting of the batch:
	// requests served, items scored vs dropped by the rule filter, the
	// analyze-stage latency distribution, and the batcher's coalescing
	// and shedding counters.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer mr.Body.Close()
	fmt.Println("key metrics after the batch:")
	sc := bufio.NewScanner(mr.Body)
	for sc.Scan() {
		line := sc.Text()
		for _, prefix := range []string{
			"cats_http_requests_total",
			"cats_pipeline_items_total",
			"cats_pipeline_stage_seconds_count",
			"cats_features_comments_analyzed_total",
			"cats_serve_batches_total",
			"cats_serve_batch_size_count",
			"cats_serve_coalesced_total",
			"cats_serve_shed_total",
		} {
			if strings.HasPrefix(line, prefix) {
				fmt.Printf("  %s\n", line)
			}
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}
