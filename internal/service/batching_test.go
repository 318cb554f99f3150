package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/ecom"
)

// checkServedMatchReference asserts a /v1/detect answer carries, in
// item order, the verdicts the served model's own DetectWithFeatures
// gives the same items in-process, and the count that reports.
func checkServedMatchReference(t *testing.T, srv *Server, items []ecom.Item, got DetectResponse) {
	t.Helper()
	h := srv.ModelRegistry().Tenant(DefaultTenant).Acquire()
	want, _, err := h.Detector.DetectWithFeatures(context.Background(), items, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Detections) != len(want) {
		t.Fatalf("detections: served %d, reference %d", len(got.Detections), len(want))
	}
	reported := 0
	for i, d := range want {
		if got.Detections[i] != detectionDTO(d) {
			t.Errorf("detection %d: served %+v, reference %+v", i, got.Detections[i], d)
		}
		if d.IsFraud {
			reported++
		}
	}
	if got.Reported != reported {
		t.Errorf("reported: served %d, reference %d", got.Reported, reported)
	}
}

// TestServedMatchesDetector pins the dispatcher's transparency: a
// request served over HTTP gets the verdicts the model's own
// DetectWithFeatures gives the same items in-process. The request is
// smaller than MaxBatch, so it goes through the queue and the
// singleflight map rather than the bypass, and it ends with two items
// that carry no ID: they are different items and must get different
// verdicts, not share the first one's flight.
func TestServedMatchesDetector(t *testing.T) {
	srv, ts, test := newTestService(t, Options{}, dispatch.Options{MaxBatch: 256, MaxWait: time.Millisecond})
	defer srv.Close()

	items := test.Dataset.Items
	fraud, normal := test.Dataset.Split()
	for _, it := range []*ecom.Item{fraud[0], normal[0]} {
		anon := *it
		anon.ID = ""
		items = append(items, anon)
	}
	body, err := json.Marshal(DetectRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	batchesBefore := scrapeMetric(t, ts.URL, "cats_serve_batches_total")

	resp, out := postDetect(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	checkServedMatchReference(t, srv, items, out)
	if n := len(out.Detections); out.Detections[n-2].Score == out.Detections[n-1].Score {
		t.Errorf("the two ID-less items share one verdict: %+v", out.Detections[n-2:])
	}
	if after := scrapeMetric(t, ts.URL, "cats_serve_batches_total"); after <= batchesBefore {
		t.Errorf("cats_serve_batches_total did not move (%g → %g); request bypassed the dispatcher", batchesBefore, after)
	}
}

// TestOversizeRequestBypassesAdmission: a request of MaxBatch items or
// more is a batch by itself and skips the admission queue, so a detect
// larger than MaxQueue is answered, not shed. MaxItems (10,000 by
// default) above the default MaxQueue (4,096) relies on this.
func TestOversizeRequestBypassesAdmission(t *testing.T) {
	srv, ts, test := newTestService(t, Options{}, dispatch.Options{MaxBatch: 8, MaxQueue: 4})
	defer srv.Close()

	items := test.Dataset.Items[:10]
	body, err := json.Marshal(DetectRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	const bypass = `cats_serve_bypass_total{tenant="default"}`
	before := scrapeMetric(t, ts.URL, bypass)
	resp, out := postDetect(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("a %d-item detect against MaxQueue 4 answered %d, want 200", len(items), resp.StatusCode)
	}
	checkServedMatchReference(t, srv, items, out)
	if after := scrapeMetric(t, ts.URL, bypass); after <= before {
		t.Errorf("%s did not move (%g → %g); the request was not bypassed", bypass, before, after)
	}
}

// TestSaturationShedsWith503 asserts the overload contract end to end
// against a one-slot admission queue: a burst of concurrent distinct-item
// requests is answered 200 or 503 and nothing else, every 503 carries a
// Retry-After hint matching the configured delay, and every 200 carries
// a full, correct verdict set. At least one of each occurs whatever the
// scheduling: the first request to reach the idle dispatcher is always
// admitted, and client 0 sends two items, which can never fit the queue.
// (What a busy scorer does to the queue is dispatch.TestShedQueueFull's,
// where the scorer can be held.)
func TestSaturationShedsWith503(t *testing.T) {
	srv, ts, test := newTestService(t, Options{}, dispatch.Options{
		MaxBatch:   64,
		MaxWait:    500 * time.Millisecond,
		MaxQueue:   1,
		RetryAfter: 2 * time.Second,
	})
	defer srv.Close()

	const clients = 32
	type outcome struct {
		status     int
		retryAfter string
		detections int
	}
	outcomes := make([]outcome, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			item := test.Dataset.Items[c%len(test.Dataset.Items)]
			item.ID = fmt.Sprintf("%s-sat%d", item.ID, c) // distinct IDs: no coalescing escape hatch
			items := []ecom.Item{item}
			if c == 0 {
				second := item
				second.ID += "-b"
				items = append(items, second)
			}
			body, err := json.Marshal(DetectRequest{Items: items})
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			out := outcome{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
			if resp.StatusCode == http.StatusOK {
				var dr DetectResponse
				if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
					t.Error(err)
					return
				}
				out.detections = len(dr.Detections)
				if len(dr.Detections) == 1 && dr.Detections[0].ItemID != item.ID {
					t.Errorf("client %d: got verdict for %q, want %q", c, dr.Detections[0].ItemID, item.ID)
				}
			}
			outcomes[c] = out
		}(c)
	}
	wg.Wait()

	var ok, shed int
	for c, o := range outcomes {
		switch o.status {
		case http.StatusOK:
			ok++
			if o.detections != 1 {
				t.Errorf("client %d: 200 with %d detections, want 1", c, o.detections)
			}
		case http.StatusServiceUnavailable:
			shed++
			if o.retryAfter != "2" {
				t.Errorf("client %d: 503 Retry-After = %q, want \"2\"", c, o.retryAfter)
			}
		default:
			t.Errorf("client %d: status %d, want 200 or 503", c, o.status)
		}
	}
	if outcomes[0].status != http.StatusServiceUnavailable {
		t.Errorf("the two-item request got %d, want 503: it cannot fit a one-slot queue", outcomes[0].status)
	}
	if ok == 0 {
		t.Error("no request was admitted; queue never drained")
	}
	t.Logf("saturation burst: %d admitted, %d shed with 503 + Retry-After", ok, shed)
}

// TestExplainThroughBatcher routes /v1/explain through the dispatcher
// and checks the single-item path still returns a full explanation.
func TestExplainThroughBatcher(t *testing.T) {
	srv, ts, test := newTestService(t, Options{}, dispatch.Options{MaxBatch: 8, MaxWait: time.Millisecond})
	defer srv.Close()

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
	if len(out.Features) != 11 || len(out.Vector) != 11 {
		t.Fatalf("explanation shapes: %d features, %d vector", len(out.Features), len(out.Vector))
	}
}
