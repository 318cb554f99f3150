package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/synth"
	"repro/internal/trainer"
)

// FuzzDecodeRequest throws arbitrary bytes at the JSON-decoding
// endpoints and pins the service's input contract: malformed, hostile,
// or merely weird request bodies must never crash the handler or
// surface as a 5xx — every response is a 2xx (valid request) or a 4xx
// (rejected request). CI runs this for a short window via the
// fuzz-smoke job; `go test -fuzz=FuzzDecodeRequest ./internal/service`
// explores further.
func FuzzDecodeRequest(f *testing.F) {
	// Small caps so the fuzzer can reach the limit branches cheaply.
	_, ts, test := newTestService(f, Options{MaxItems: 4, MaxBodyBytes: 1 << 16})

	// Seeds: one valid request, then the classic decoder traps —
	// truncation, type confusion, nulls, duplicate keys, deep nesting,
	// BOMs, invalid UTF-8, number edge cases.
	if valid, err := json.Marshal(DetectRequest{Items: test.Dataset.Items[:1]}); err == nil {
		f.Add(valid)
	}
	for _, s := range []string{
		`{"items":[]}`,
		`{"items":null}`,
		`{"items":[{}]}`,
		`{"items":[{"item_id":"a","comments":[{"text":"ok"}]}]}`,
		`{"items":[{"item_id":"a"},{"item_id":"a"}]}`,
		`{"items":"not-a-list"}`,
		`{"items":[{"price_cents":-1,"sales_volume":-99}]}`,
		`{"items":[{"price_cents":1e309}]}`,
		`{"items":[{"item_id":123}]}`,
		`{broken`,
		``,
		`null`,
		`[]`,
		`"just a string"`,
		"\xef\xbb\xbf{\"items\":[]}",
		"{\"items\":[{\"item_id\":\"\xff\xfe\"}]}",
		`{"items":[{"item_id":"a"}],"items":[{"item_id":"b"}]}`,
		strings.Repeat(`{"items":`, 100) + strings.Repeat(`}`, 100),
		`{"items":[` + strings.Repeat(`{"item_id":"x"},`, 9) + `{}]}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/detect", "/v1/explain"} {
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s transport error: %v", path, err)
			}
			resp.Body.Close()
			if resp.StatusCode >= 500 {
				t.Fatalf("%s returned %d for body %q; arbitrary input must never be a server error",
					path, resp.StatusCode, body)
			}
		}
	})
}

// FuzzDecodeDetectDifferential holds the single-pass request decoder to
// encoding/json. For arbitrary bytes: when the fast decoder accepts a
// body, encoding/json accepts it too and yields the same items (nothing
// is asserted when it declines — declining is always allowed); and a
// server answers /v1/detect and /v1/explain with the same status and
// the same verdicts as a server that sends every body through
// encoding/json.
func FuzzDecodeDetectDifferential(f *testing.F) {
	det, analyzer, _ := trainTestDetector(f)
	opts := Options{MaxItems: 4, MaxBodyBytes: 1 << 16}
	srv := serveDetector(f, det, analyzer, opts, nil)
	oracle := serveDetector(f, det, analyzer, opts, nil)
	oracle.stdlibOnly = true
	handler, oracleHandler := srv.Handler(), oracle.Handler()

	test := synth.Generate(synth.Config{Name: "svc-fuzz", Seed: 95, FraudEvidence: 1, Normal: 2, Shops: 1})
	if valid, err := json.Marshal(DetectRequest{Items: test.Dataset.Items}); err == nil {
		f.Add(valid)
	}
	if valid, err := json.Marshal(ExplainRequest{Item: test.Dataset.Items[0]}); err == nil {
		f.Add(valid)
	}
	cut := test.Dataset.Items[1] // under the sales cutoff: explain computes its vector from Texts
	cut.SalesVolume = 1
	if valid, err := json.Marshal(ExplainRequest{Item: cut}); err == nil {
		f.Add(valid)
	}
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
		f.Add([]byte(strings.Replace(s, `{"items":[`, `{"item":`, 1)))
	}

	post := func(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDetectDifferential(t, body)

		got, want := post(handler, "/v1/detect", body), post(oracleHandler, "/v1/detect", body)
		if got.Code != want.Code {
			t.Fatalf("/v1/detect status %d, encoding/json alone %d, for body %q", got.Code, want.Code, body)
		}
		if got.Code == http.StatusOK {
			var g, w DetectResponse
			if err := json.Unmarshal(got.Body.Bytes(), &g); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(want.Body.Bytes(), &w); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g.Detections, w.Detections) {
				t.Fatalf("/v1/detect detections differ for body %q:\n got  %+v\n want %+v", body, g.Detections, w.Detections)
			}
		}

		got, want = post(handler, "/v1/explain", body), post(oracleHandler, "/v1/explain", body)
		if got.Code != want.Code {
			t.Fatalf("/v1/explain status %d, encoding/json alone %d, for body %q", got.Code, want.Code, body)
		}
		if got.Code == http.StatusOK {
			var g, w ExplainResponse
			if err := json.Unmarshal(got.Body.Bytes(), &g); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(want.Body.Bytes(), &w); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g.Detection, w.Detection) || !reflect.DeepEqual(g.Vector, w.Vector) {
				t.Fatalf("/v1/explain differs for body %q:\n got  %+v %v\n want %+v %v", body, g.Detection, g.Vector, w.Detection, w.Vector)
			}
		}
	})
}

// FuzzDecodeFeedback pins the same input contract for the drift loop's
// label intake: arbitrary bytes at /v1/feedback must never surface as
// a 5xx, and — since the retrain window is training data — a rejected
// request must never grow the window. (Labels can't be poisoned by
// construction: the trainer overwrites each item's label from the
// request's fraud bit, and entries without an item id are refused
// atomically.)
func FuzzDecodeFeedback(f *testing.F) {
	_, ts, tr, _ := newTrainerService(f, trainer.Config{}, Options{MaxItems: 8, MaxBodyBytes: 1 << 16})

	if valid, err := json.Marshal(FeedbackRequest{Feedback: shiftedEntries(501)[:2]}); err == nil {
		f.Add(valid)
	}
	for _, s := range []string{
		`{"feedback":[]}`,
		`{"feedback":null}`,
		`{"feedback":[{}]}`,
		`{"feedback":[{"fraud":true}]}`,
		`{"feedback":[{"item":{"item_id":"a"},"fraud":true}]}`,
		`{"feedback":[{"item":{"item_id":"a"},"fraud":"yes"}]}`,
		`{"feedback":[{"item":{"item_id":"a","label":2},"fraud":false}]}`,
		`{"feedback":[{"item":{"item_id":""},"fraud":true}]}`,
		`{"feedback":"not-a-list"}`,
		`{broken`,
		``,
		`null`,
		"\xef\xbb\xbf{\"feedback\":[]}",
		"{\"feedback\":[{\"item\":{\"item_id\":\"\xff\xfe\"}}]}",
		`{"feedback":[` + strings.Repeat(`{"item":{"item_id":"x"}},`, 8) + `{}]}`,
	} {
		f.Add([]byte(s))
	}

	windowSeen := func() uint64 {
		for _, st := range tr.Status() {
			if st.Tenant == DefaultTenant {
				return st.WindowSeen
			}
		}
		return 0
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		before := windowSeen()
		resp, err := http.Post(ts.URL+"/v1/feedback", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("transport error: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("/v1/feedback returned %d for body %q; arbitrary input must never be a server error",
				resp.StatusCode, body)
		}
		if resp.StatusCode != http.StatusOK && windowSeen() != before {
			t.Fatalf("rejected request (status %d, body %q) grew the retrain window from %d to %d",
				resp.StatusCode, body, before, windowSeen())
		}
	})
}

// FuzzDecodeFeedbackDifferential holds /v1/feedback's single-pass
// decoder to encoding/json the way FuzzDecodeDetectDifferential holds
// detect's: whatever the fast decoder accepts encoding/json accepts with
// the same entries, and a server answers with the same status and
// accepted count — and ends up with the same retrain window, hash and
// texts — as a server that sends every body through encoding/json.
func FuzzDecodeFeedbackDifferential(f *testing.F) {
	pair := newFeedbackPair(f)
	f.Add(feedbackBody(f, shiftedEntries(501)[:2]))
	for _, s := range feedbackSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkFeedbackDifferential(t, body)
		pair.post(t, body)
	})
}
