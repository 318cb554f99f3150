package service

import (
	"bytes"
	"encoding/json"
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
// two instances share the exact same trained model.
func TestBatchedMatchesUnbatched(t *testing.T) {
	_, plainTS, test := newTestService(t, Options{})
	srv, batchTS, _ := newBatchedTestService(t, Options{},
		&dispatch.Options{MaxBatch: 16, MaxWait: time.Millisecond})
	defer srv.Close()

	body, err := json.Marshal(DetectRequest{Items: test.Dataset.Items})
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
	if plainOut.Reported != batchOut.Reported {
		t.Errorf("reported: plain %d, batched %d", plainOut.Reported, batchOut.Reported)
	}
	if after := scrapeMetric(t, batchTS.URL, "cats_serve_batches_total"); after <= batchesBefore {
		t.Errorf("cats_serve_batches_total did not move (%g → %g); request bypassed the dispatcher", batchesBefore, after)
	}
}

// TestSaturationShedsWith503 drives a deliberately tiny admission queue
// with a burst of concurrent distinct-item requests and asserts the
// overload contract end to end: every response is 200 or 503, at least
// one of each occurs, every 503 carries a Retry-After hint matching the
// configured delay, and every 200 carries a full, correct verdict set.
func TestSaturationShedsWith503(t *testing.T) {
	srv, ts, test := newBatchedTestService(t, Options{}, &dispatch.Options{
		MaxBatch:   64,
		MaxWait:    500 * time.Millisecond, // hold the queue long enough to saturate
		MaxQueue:   1,
		RetryAfter: 2 * time.Second,
	})
	defer srv.Close()

	const clients = 32
	type outcome struct {
		status     int
		retryAfter string
		detections int
		itemID     string
	}
	outcomes := make([]outcome, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			item := test.Dataset.Items[c%len(test.Dataset.Items)]
			item.ID = item.ID + "-sat" // distinct IDs: no coalescing escape hatch
			body, err := json.Marshal(DetectRequest{Items: []ecom.Item{item}})
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
			out := outcome{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), itemID: item.ID}
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
	if ok == 0 {
		t.Error("no request was admitted; queue never drained")
	}
	if shed == 0 {
		t.Error("no request was shed despite MaxQueue=1 under a 32-client burst")
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
