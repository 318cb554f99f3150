package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/ecom"
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
	_, ts, test := newTestService(f, Options{MaxItems: 4, MaxBodyBytes: 1 << 16}, dispatch.Options{})

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

// FuzzDecodeDetectDifferential holds the request decoder to
// json.Unmarshal. For arbitrary bytes: it accepts a body iff
// encoding/json does, with the same items (checkDetectDifferential);
// every item of an accepted body scores a probability (checkScores);
// and /v1/detect and /v1/explain answer a body encoding/json accepts as
// they answer its canonical re-encoding (reencode) — same status, same
// verdicts — and one it rejects with a 4xx.
func FuzzDecodeDetectDifferential(f *testing.F) {
	det, analyzer, _ := trainTestDetector(f)
	opts := Options{MaxItems: 4, MaxBodyBytes: 1 << 16}
	handler := serveDetector(f, det, analyzer, opts, dispatch.Options{}).Handler()
	// A re-encoding can outgrow its body: the oracle takes any size.
	oracle := serveDetector(f, det, analyzer, Options{MaxItems: opts.MaxItems}, dispatch.Options{}).Handler()

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
	for _, list := range [][]string{detectAccepts, detectRejects, explainAccepts, explainRejects} {
		for _, s := range list {
			f.Add([]byte(s))
		}
	}

	post := func(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDetectDifferential(t, body)

		for _, c := range []struct {
			path string
			req  any
		}{{"/v1/detect", new(DetectRequest)}, {"/v1/explain", new(ExplainRequest)}} {
			got := post(handler, c.path, body)
			canonical, ok := reencode(t, body, c.req)
			if ok {
				checkScores(t, det, c.req)
			}
			switch {
			case got.Code >= 500 || (!ok && got.Code == http.StatusOK):
				t.Fatalf("%s answered %d to body %q, which encoding/json accepts: %v", c.path, got.Code, body, ok)
			case !ok, got.Code == http.StatusRequestEntityTooLarge && len(body) > int(opts.MaxBodyBytes),
				got.Code != http.StatusOK && refusesMerge(got.Body.String()):
				continue
			}
			want := post(oracle, c.path, canonical)
			if got.Code != want.Code {
				t.Fatalf("%s status %d, its canonical re-encoding %d, for body %q", c.path, got.Code, want.Code, body)
			}
			if got.Code != http.StatusOK {
				continue
			}
			var g, w ExplainResponse
			var gd, wd DetectResponse
			for _, r := range []struct {
				rec *httptest.ResponseRecorder
				out any
			}{{got, &gd}, {want, &wd}, {got, &g}, {want, &w}} {
				if err := json.Unmarshal(r.rec.Body.Bytes(), r.out); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(gd.Detections, wd.Detections) || !reflect.DeepEqual(g.Detection, w.Detection) || !reflect.DeepEqual(g.Vector, w.Vector) {
				t.Fatalf("%s answers differ for body %q:\n got  %s\n want %s", c.path, body, got.Body, want.Body)
			}
		}
	})
}

// checkScores scores each item of a decoded detect or explain request
// with det, and fails unless both the detection's Score and the model's
// probability for the item's vector — what the rule filter would have
// skipped included — are finite and within [0, 1].
func checkScores(t *testing.T, det *core.Detector, req any) {
	t.Helper()
	var items []ecom.Item
	switch r := req.(type) {
	case *DetectRequest:
		items = r.Items
	case *ExplainRequest:
		items = []ecom.Item{r.Item}
	}
	for i := range items {
		d, err := det.DetectItem(&items[i])
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		p := det.Model().PredictProba(det.Extractor().Vector(&items[i]))
		if !(d.Score >= 0 && d.Score <= 1) || !(p >= 0 && p <= 1) {
			t.Fatalf("item %d (%q) scored %v, probability %v; want both finite and within [0, 1]", i, items[i].ID, d.Score, p)
		}
	}
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

// FuzzDecodeFeedbackDifferential holds /v1/feedback's decoder to
// json.Unmarshal the way FuzzDecodeDetectDifferential holds detect's: it
// accepts a body iff encoding/json does, with the same entries, and a
// server answers it as one sent its canonical re-encoding answers — same
// status and accepted count, the same retrain window, hash and texts.
func FuzzDecodeFeedbackDifferential(f *testing.F) {
	pair := newFeedbackPair(f)
	f.Add(feedbackBody(f, shiftedEntries(501)[:2]))
	for _, s := range append(append(feedbackSeeds, feedbackAccepts...), feedbackRejects...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkFeedbackDifferential(t, body)
		pair.post(t, body)
	})
}

// FuzzDecodeFaultingReader drives decodeItems — the pooled read buffer
// and the pooled decoder — with the body behind readers that fault: one
// byte a Read (iotest.OneByteReader), half of each (iotest.HalfReader),
// or an error after cut bytes. Short reads decode to exactly what the
// whole body decodes to, error text included; a failed read is a 4xx
// that leaves the request empty and, through the handler, grows no
// retrain window; and a canonical body decoded next, through the same
// pools, decodes as it always does — Body resets the decoder's error and
// its arena.
func FuzzDecodeFaultingReader(f *testing.F) {
	srv, _, tr, _ := newTrainerService(f, trainer.Config{}, Options{MaxItems: 8, MaxBodyBytes: 1 << 16})
	handler := srv.Handler()
	canonical := feedbackBody(f, shiftedEntries(501)[:2])
	var want FeedbackRequest
	if err := unmarshal(canonical, &want); err != nil {
		f.Fatal(err)
	}

	f.Add(canonical, 0)
	f.Add(canonical, len(canonical)/2)
	f.Add(coldBody(f)[:4096], 100)
	for i, s := range append(append([]string{}, decodeSeeds[:12]...), feedbackSeeds[:12]...) {
		f.Add([]byte(s), 7*i)
	}

	errFault := errors.New("connection reset by fault injection")
	read := func(body io.Reader, req itemBody) error {
		return srv.decodeItems(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/detect", body), req)
	}
	windowSeen := func() uint64 {
		for _, st := range tr.Status() {
			return st.WindowSeen
		}
		return 0
	}
	f.Fuzz(func(t *testing.T, body []byte, cut int) {
		cut = min(max(cut, 0), len(body))
		for _, newReq := range []func() itemBody{
			func() itemBody { return new(DetectRequest) },
			func() itemBody { return new(ExplainRequest) },
			func() itemBody { return new(FeedbackRequest) },
		} {
			whole := newReq()
			wholeErr := decodeBody(whole, body)
			for _, r := range []io.Reader{iotest.OneByteReader(bytes.NewReader(body)), iotest.HalfReader(bytes.NewReader(body))} {
				got := newReq()
				err := read(r, got)
				if fmt.Sprint(err) != fmt.Sprint(wholeErr) || (err == nil && !reflect.DeepEqual(got, whole)) {
					t.Fatalf("%T by short reads: %v %+v, whole body: %v %+v", got, err, got, wholeErr, whole)
				}
			}
			got := newReq()
			err := read(io.MultiReader(bytes.NewReader(body[:cut]), iotest.ErrReader(errFault)), got)
			if !errors.Is(err, errFault) || decodeStatus(err)/100 != 4 || !reflect.ValueOf(got).Elem().IsZero() {
				t.Fatalf("%T read failing after %d bytes: %v (status %d), request %+v", got, cut, err, decodeStatus(err), got)
			}
		}
		for _, path := range []string{"/v1/detect", "/v1/feedback"} {
			before := windowSeen()
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, io.MultiReader(bytes.NewReader(body[:cut]), iotest.ErrReader(errFault))))
			if rec.Code/100 != 4 || windowSeen() != before {
				t.Fatalf("%s read failing after %d bytes: %d, window %d -> %d", path, cut, rec.Code, before, windowSeen())
			}
		}
		var next FeedbackRequest
		if err := read(bytes.NewReader(canonical), &next); err != nil || !reflect.DeepEqual(next, want) {
			t.Fatalf("the canonical body after %q: %v %+v", body, err, next)
		}
	})
}
