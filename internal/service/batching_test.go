package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/ecom"
)

// TestBatchedMatchesUnbatched pins the dispatcher's transparency: the
// same request through a batching service and a plain one must yield
// byte-identical verdicts. newTestService builds from fixed seeds, so
// two instances share the exact same trained model. The request is
// smaller than MaxBatch, so it goes through the queue and the
// singleflight map rather than the bypass, and it ends with two items
// that carry no ID: they are different items and must get different
// verdicts, not share the first one's flight.
func TestBatchedMatchesUnbatched(t *testing.T) {
	_, plainTS, test := newTestService(t, Options{})
	srv, batchTS, _ := newBatchedTestService(t, Options{},
		&dispatch.Options{MaxBatch: 256, MaxWait: time.Millisecond})
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
	batchesBefore := scrapeMetric(t, batchTS.URL, "cats_serve_batches_total")

	plainResp, plainOut := postDetect(t, plainTS.URL, body)
	batchResp, batchOut := postDetect(t, batchTS.URL, body)
	if plainResp.StatusCode != http.StatusOK || batchResp.StatusCode != http.StatusOK {
		t.Fatalf("status: plain %d, batched %d", plainResp.StatusCode, batchResp.StatusCode)
	}
	if len(batchOut.Detections) != len(plainOut.Detections) {
		t.Fatalf("detections: plain %d, batched %d", len(plainOut.Detections), len(batchOut.Detections))
	}
	for i := range plainOut.Detections {
		if plainOut.Detections[i] != batchOut.Detections[i] {
			t.Errorf("detection %d: plain %+v, batched %+v", i, plainOut.Detections[i], batchOut.Detections[i])
		}
	}
	if n := len(batchOut.Detections); batchOut.Detections[n-2].Score == batchOut.Detections[n-1].Score {
		t.Errorf("the two ID-less items share one verdict: %+v", batchOut.Detections[n-2:])
	}
	if plainOut.Reported != batchOut.Reported {
		t.Errorf("reported: plain %d, batched %d", plainOut.Reported, batchOut.Reported)
	}
	if after := scrapeMetric(t, batchTS.URL, "cats_serve_batches_total"); after <= batchesBefore {
		t.Errorf("cats_serve_batches_total did not move (%g → %g); request bypassed the dispatcher", batchesBefore, after)
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
	srv, ts, test := newBatchedTestService(t, Options{}, &dispatch.Options{
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
	srv, ts, test := newBatchedTestService(t, Options{},
		&dispatch.Options{MaxBatch: 8, MaxWait: time.Millisecond})
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
