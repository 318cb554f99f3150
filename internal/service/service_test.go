package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/ecom"
	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/textgen"
	"repro/internal/trainer"
)

// serveDetector serves one in-process detector as the default tenant
// of a fresh one-tenant registry, with or without a batching
// dispatcher in front of it.
func serveDetector(t testing.TB, det *core.Detector, analyzer *core.Analyzer, opts Options, batching *dispatch.Options) *Server {
	t.Helper()
	reg := registry.New(registry.Options{Batching: batching, Workers: opts.Workers})
	if _, err := reg.Install(context.Background(), DefaultTenant, "in-process", det, analyzer); err != nil {
		t.Fatal(err)
	}
	return NewWithRegistry(reg, opts)
}

func newTestService(t testing.TB, opts Options) (*Server, *httptest.Server, *synth.Universe) {
	return newBatchedTestService(t, opts, nil)
}

func newBatchedTestService(t testing.TB, opts Options, batching *dispatch.Options) (*Server, *httptest.Server, *synth.Universe) {
	t.Helper()
	det, analyzer, _ := trainTestDetector(t)
	srv := serveDetector(t, det, analyzer, opts, batching)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	test := synth.Generate(synth.Config{
		Name: "svc-test", Seed: 93, FraudEvidence: 15, Normal: 45, Shops: 4,
	})
	return srv, ts, test
}

// trainTestDetector trains the fixed-seed model every newTestService
// instance serves, so two instances share the exact same verdicts.
func trainTestDetector(t testing.TB) (*core.Detector, *core.Analyzer, *textgen.Bank) {
	t.Helper()
	bank := textgen.NewBank()
	texts, labels := synth.PolarCorpus(800, 91)
	analyzer, err := core.OracleAnalyzer(bank.Vocabulary(), bank.PositiveForms(), bank.Negative, texts, labels)
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewDetector(analyzer, core.DetectorConfig{})
	train := synth.Generate(synth.Config{
		Name: "svc-train", Seed: 92, FraudEvidence: 80, Normal: 120, Shops: 6,
	})
	if err := det.Train(&train.Dataset, 0); err != nil {
		t.Fatal(err)
	}
	return det, analyzer, bank
}

func postDetect(t *testing.T, url string, body []byte) (*http.Response, DetectResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out DetectResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestDetectEndpoint(t *testing.T) {
	srv, ts, test := newTestService(t, Options{})
	body, err := json.Marshal(DetectRequest{Items: test.Dataset.Items})
	if err != nil {
		t.Fatal(err)
	}
	resp, out := postDetect(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out.Detections) != len(test.Dataset.Items) {
		t.Fatalf("got %d detections, want %d", len(out.Detections), len(test.Dataset.Items))
	}
	if out.Reported == 0 {
		t.Error("no fraud reported on a set containing fraud")
	}
	// Verify verdict quality against hidden labels.
	truth := map[string]bool{}
	for i := range test.Dataset.Items {
		truth[test.Dataset.Items[i].ID] = test.Dataset.Items[i].Label.IsFraud()
	}
	var tp, fp int
	for _, d := range out.Detections {
		if d.IsFraud {
			if truth[d.ItemID] {
				tp++
			} else {
				fp++
			}
		}
	}
	if prec := float64(tp) / float64(tp+fp); prec < 0.7 {
		t.Errorf("service precision %.2f", prec)
	}
	if srv.ItemsServed() != int64(len(test.Dataset.Items)) {
		t.Errorf("ItemsServed = %d", srv.ItemsServed())
	}
}

func TestDetectValidation(t *testing.T) {
	_, ts, _ := newTestService(t, Options{MaxItems: 2})
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/detect")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", resp.StatusCode)
	}
	// Malformed JSON.
	r2, _ := postDetect(t, ts.URL, []byte("{broken"))
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed status = %d", r2.StatusCode)
	}
	// Empty items.
	r3, _ := postDetect(t, ts.URL, []byte(`{"items":[]}`))
	if r3.StatusCode != http.StatusBadRequest {
		t.Errorf("empty status = %d", r3.StatusCode)
	}
	// Too many items.
	items := make([]ecom.Item, 3)
	body, _ := json.Marshal(DetectRequest{Items: items})
	r4, _ := postDetect(t, ts.URL, body)
	if r4.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("overflow status = %d", r4.StatusCode)
	}
}

// TestTrailingBytesAre400: a body is one JSON value. Bytes after it —
// a second request glued on, or any other text — are a 400 that names
// their offset, on every route, and feed nothing to the retrain window.
func TestTrailingBytesAre400(t *testing.T) {
	_, ts, tr, _ := newTrainerService(t, trainer.Config{}, Options{})
	entries := shiftedEntries(501)[:2]
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	detect := marshal(DetectRequest{Items: []ecom.Item{entries[0].Item}})
	explain := marshal(ExplainRequest{Item: entries[0].Item})
	feedback := marshal(FeedbackRequest{Feedback: entries})
	for _, c := range []struct {
		path, body, after string
	}{
		{"/v1/detect", detect, marshal(DetectRequest{Items: []ecom.Item{entries[1].Item}})},
		{"/v1/explain", explain, " trailing"},
		{"/v1/feedback", feedback, " trailing"},
		{"/v1/feedback", feedback, feedback},
	} {
		t.Run(strings.TrimPrefix(c.path, "/v1/"), func(t *testing.T) {
			seen := tr.Status()
			resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body+c.after))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var out struct{ Error string }
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			offset := len(c.body) + len(c.after) - len(strings.TrimLeft(c.after, " "))
			want := fmt.Sprintf("decode request: ecom: offset %d: invalid character %q after the value", offset, strings.TrimLeft(c.after, " ")[0])
			if resp.StatusCode != http.StatusBadRequest || out.Error != want {
				t.Errorf("%d %q, want 400 %q", resp.StatusCode, out.Error, want)
			}
			if !reflect.DeepEqual(tr.Status(), seen) {
				t.Errorf("the retrain window moved: %+v -> %+v", seen, tr.Status())
			}
		})
	}
	// The same bodies alone are taken.
	for path, body := range map[string]string{"/v1/detect": detect, "/v1/explain": explain, "/v1/feedback": feedback} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: %d for the body alone", path, resp.StatusCode)
		}
	}
}

func TestBodySizeCap(t *testing.T) {
	_, ts, _ := newTestService(t, Options{MaxBodyBytes: 64})
	big := `{"items":[{"item_id":"` + strings.Repeat("x", 500) + `"}]}`
	resp, _ := postDetect(t, ts.URL, []byte(big))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/v1/detect", "POST"},
		{http.MethodGet, "/v1/explain", "POST"},
		{http.MethodPost, "/v1/importance", "GET"},
		{http.MethodPost, "/v1/drift", "GET"},
		{http.MethodPost, "/v1/lexicon", "GET"},
		{http.MethodDelete, "/healthz", "GET"},
		{http.MethodPost, "/readyz", "GET"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s status = %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
		}
	}
}

func TestReadyz(t *testing.T) {
	srv, ts, _ := newTestService(t, Options{})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ready status = %d, want 200", resp.StatusCode)
	}
	srv.SetReady(false)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503", resp.StatusCode)
	}
	if srv.Ready() {
		t.Error("Ready() = true after SetReady(false)")
	}
}

func TestImportanceEndpoint(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/importance")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out ImportanceResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Features) != 11 {
		t.Fatalf("features = %d, want 11", len(out.Features))
	}
}

func TestLexiconEndpoint(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/lexicon")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out LexiconResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Positive) == 0 || len(out.Negative) == 0 {
		t.Fatal("empty lexicons")
	}
	if len(out.FeatureNames) != 11 {
		t.Fatalf("feature names = %d", len(out.FeatureNames))
	}
}

func TestHealthz(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestConcurrentDetectRequests(t *testing.T) {
	srv, ts, test := newTestService(t, Options{})
	body, err := json.Marshal(DetectRequest{Items: test.Dataset.Items[:20]})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var out DetectResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if len(out.Detections) != 20 {
				errs <- fmt.Errorf("got %d detections", len(out.Detections))
				return
			}
			errs <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if srv.ItemsServed() != clients*20 {
		t.Fatalf("ItemsServed = %d, want %d", srv.ItemsServed(), clients*20)
	}
}

func TestExplainEndpoint(t *testing.T) {
	_, ts, test := newTestService(t, Options{})
	body, err := json.Marshal(ExplainRequest{Item: test.Dataset.Items[0]})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/explain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out ExplainResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Detection.ItemID != test.Dataset.Items[0].ID {
		t.Fatalf("explained wrong item %q", out.Detection.ItemID)
	}
	if len(out.Features) != 11 || len(out.Vector) != 11 || len(out.Names) != 11 {
		t.Fatalf("explanation shapes: %d features, %d vector, %d names",
			len(out.Features), len(out.Vector), len(out.Names))
	}

	// An item under the sales cutoff is never analyzed while it is
	// scored; its vector is computed on demand from the Texts the request
	// decoded to, and is the row's — batched or not, by either decoder.
	cut := test.Dataset.Items[1]
	cut.SalesVolume = 1
	body, err = json.Marshal(ExplainRequest{Item: cut})
	if err != nil {
		t.Fatal(err)
	}
	batched, bts, _ := newBatchedTestService(t, Options{}, &dispatch.Options{MaxBatch: 8, MaxWait: time.Millisecond})
	defer batched.Close()
	for _, url := range []string{ts.URL, bts.URL} {
		for _, contentKey := range []string{`"comment_content"`, `"COMMENT_CONTENT"`} { // the second falls back to encoding/json
			resp, err := http.Post(url+"/v1/explain", "application/json", bytes.NewReader(bytes.ReplaceAll(body, []byte(`"comment_content"`), []byte(contentKey))))
			if err != nil {
				t.Fatal(err)
			}
			var out ExplainResponse
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || !out.Detection.Filtered || out.ModelGeneration == 0 {
				t.Fatalf("%s, %s: sales-cut explain: status %d, %+v (%v)", url, contentKey, resp.StatusCode, out, err)
			}
			batched.ModelRegistry().Tenant(DefaultTenant).Do(func(h *registry.Handle) {
				if want := h.Detector.Extractor().Vector(&cut); !reflect.DeepEqual(out.Vector, want) {
					t.Fatalf("%s, %s: sales-cut explain vector %v, the row's %v", url, contentKey, out.Vector, want)
				}
			})
		}
	}

	// Method and body validation.
	r2, err := http.Get(ts.URL + "/v1/explain")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", r2.StatusCode)
	}
	r3, err := http.Post(ts.URL+"/v1/explain", "application/json", strings.NewReader("{bad"))
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed status = %d", r3.StatusCode)
	}
}

func TestDriftEndpoint(t *testing.T) {
	// Build a service with drift tracking on, send two traffic
	// profiles, and confirm the KS signal distinguishes them.
	bank := textgen.NewBank()
	texts, labels := synth.PolarCorpus(800, 94)
	analyzer, err := core.OracleAnalyzer(bank.Vocabulary(), bank.PositiveForms(), bank.Negative, texts, labels)
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewDetector(analyzer, core.DetectorConfig{})
	train := synth.Generate(synth.Config{
		Name: "drift-train", Seed: 95, FraudEvidence: 80, Normal: 120, Shops: 6,
	})
	if err := det.Train(&train.Dataset, 0); err != nil {
		t.Fatal(err)
	}
	srv := serveDetector(t, det, analyzer, Options{}, nil) // drift on: Train kept a sample
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	getDrift := func() DriftResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/drift")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out DriftResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Before traffic: empty sample.
	if d := getDrift(); d.SampleSize != 0 {
		t.Fatalf("pre-traffic sample size = %d", d.SampleSize)
	}

	// In-distribution traffic: low drift.
	same := synth.Generate(synth.Config{
		Name: "drift-same", Seed: 96, FraudEvidence: 60, Normal: 90, Shops: 6,
	})
	body, _ := json.Marshal(DetectRequest{Items: same.Dataset.Items})
	resp, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	low := getDrift()
	if low.SampleSize == 0 {
		t.Fatal("drift reservoir empty after traffic")
	}
	if len(low.Features) != 11 {
		t.Fatalf("drift features = %d", len(low.Features))
	}

	// Shifted traffic: a normal-only universe with long comments looks
	// nothing like the balanced training set.
	shifted := synth.Generate(synth.Config{
		Name: "drift-shift", Seed: 97, FraudEvidence: 1, Normal: 200, Shops: 6,
		NormalCommentsMin: 40, NormalCommentsMax: 60,
	})
	body2, _ := json.Marshal(DetectRequest{Items: shifted.Dataset.Items})
	for i := 0; i < 5; i++ { // flood the reservoir with shifted traffic
		r, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(body2))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	high := getDrift()
	if high.MaxKS <= low.MaxKS {
		t.Fatalf("shifted traffic KS %.3f not above in-distribution %.3f", high.MaxKS, low.MaxKS)
	}
}

// TestDriftDisabled: a model that carries no training sample (here a
// snapshot with it cleared) has nothing to measure drift against, so
// /v1/drift answers 501.
func TestDriftDisabled(t *testing.T) {
	trained, analyzer, bank := trainTestDetector(t)
	snap, err := trained.Snapshot(bank.Vocabulary(), analyzer)
	if err != nil {
		t.Fatal(err)
	}
	snap.TrainingSample = nil
	det, restored, err := core.DetectorFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serveDetector(t, det, restored, Options{}, nil).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/drift")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status = %d, want 501 when drift tracking is off", resp.StatusCode)
	}
}

// TestDetectSegmentsOncePerComment: one HTTP detection call — drift
// recording included — must segment each comment of each item that
// reaches analysis exactly once, and skip sales-filtered items
// entirely. This pins down the fused pipeline at the service layer.
func TestDetectSegmentsOncePerComment(t *testing.T) {
	bank := textgen.NewBank()
	texts, labels := synth.PolarCorpus(800, 96)
	analyzer, err := core.OracleAnalyzer(bank.Vocabulary(), bank.PositiveForms(), bank.Negative, texts, labels)
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewDetector(analyzer, core.DetectorConfig{})
	train := synth.Generate(synth.Config{
		Name: "seg-train", Seed: 97, FraudEvidence: 80, Normal: 120, Shops: 6,
	})
	if err := det.Train(&train.Dataset, 0); err != nil {
		t.Fatal(err)
	}
	srv := serveDetector(t, det, analyzer, Options{}, nil) // drift on: Train kept a sample
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	test := synth.Generate(synth.Config{
		Name: "seg-test", Seed: 98, FraudEvidence: 20, Normal: 40, Shops: 4,
	})
	items := test.Dataset.Items
	for i := range items {
		if i%3 == 0 {
			items[i].SalesVolume = 1 // below the cutoff: never segmented
		}
	}
	var analyzed int64
	for i := range items {
		if items[i].SalesVolume >= 5 {
			analyzed += int64(len(items[i].Comments))
		}
	}
	body, err := json.Marshal(DetectRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}

	seg := det.Extractor().Segmenter()
	before := seg.Segmentations()
	resp, out := postDetect(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out.Detections) != len(items) {
		t.Fatalf("got %d detections, want %d", len(out.Detections), len(items))
	}
	if got := seg.Segmentations() - before; got != analyzed {
		t.Fatalf("/v1/detect ran %d segmentation passes, want %d (one per analyzed comment)", got, analyzed)
	}
}

// scrapeMetric fetches /metrics and sums the values of every sample
// line whose name+labels start with prefix.
func scrapeMetric(t *testing.T, baseURL, prefix string) float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	var total float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		total += v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return total
}

// TestMetricsEndpoint scrapes /metrics around a /v1/detect call and
// asserts the request counter, the pipeline outcome counters (including
// rule-filter drops), and the per-stage latency histograms all moved.
// Counters live on the shared default registry, so only deltas are
// asserted.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, test := newTestService(t, Options{})
	items := append([]ecom.Item(nil), test.Dataset.Items...)
	for i := range items {
		if i%2 == 0 {
			items[i].SalesVolume = 1 // below the stage-one sales cutoff
		}
	}
	probes := map[string]string{
		"requests": `cats_http_requests_total{route="/v1/detect",code="200"}`,
		"scored":   `cats_pipeline_items_total{outcome="scored",tenant="default"}`,
		"dropped":  `cats_pipeline_items_total{outcome="filtered_sales",tenant="default"}`,
		"analyze":  `cats_pipeline_stage_seconds_count{stage="analyze",tenant="default"}`,
		"score":    `cats_pipeline_stage_seconds_count{stage="score",tenant="default"}`,
		"comments": `cats_features_comments_analyzed_total`,
		"batch":    `cats_pipeline_batch_size_count`,
	}
	before := map[string]float64{}
	for k, prefix := range probes {
		before[k] = scrapeMetric(t, ts.URL, prefix)
	}
	body, err := json.Marshal(DetectRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := postDetect(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect status = %d", resp.StatusCode)
	}
	for k, prefix := range probes {
		if after := scrapeMetric(t, ts.URL, prefix); after <= before[k] {
			t.Errorf("%s (%s) did not move: before %g, after %g", k, prefix, before[k], after)
		}
	}
	if n := scrapeMetric(t, ts.URL, `cats_pipeline_items_total{outcome="filtered_sales",tenant="default"}`); n < float64(len(items)/2) {
		t.Errorf("filtered_sales = %g, want at least %d", n, len(items)/2)
	}
	// The in-flight gauge must be back to zero between requests.
	if g := scrapeMetric(t, ts.URL, "cats_http_in_flight"); g != 1 {
		// 1, not 0: the /metrics request reading the gauge is itself in flight.
		t.Errorf("in-flight during scrape = %g, want 1", g)
	}
}
