package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ecom"
	"repro/internal/synth"
	"repro/internal/trainer"
)

// coldBody is a serve_cold-shaped detect body: 16 generated items with
// about ten comments each, in the canonical encoding.
func coldBody(t testing.TB) []byte {
	t.Helper()
	u := synth.Generate(synth.Config{
		Name: "decode", Seed: 94, FraudEvidence: 1, Normal: 15,
		FraudCommentsMin: 8, FraudCommentsMax: 20,
		NormalCommentsMin: 3, NormalCommentsMax: 18,
	})
	body, err := json.Marshal(DetectRequest{Items: u.Dataset.Items})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func stdlibDetect(body []byte) (DetectRequest, error) {
	var req DetectRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// sameItems is reflect.DeepEqual over items with each date compared the
// way time.Time asks to be: the same instant, at the same zone offset.
func sameItems(a, b []ecom.Item) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if len(x.Comments) != len(y.Comments) || (x.Comments == nil) != (y.Comments == nil) {
			return false
		}
		for j := range x.Comments {
			cx, cy := x.Comments[j], y.Comments[j]
			_, ox := cx.Date.Zone()
			_, oy := cy.Date.Zone()
			if !cx.Date.Equal(cy.Date) || ox != oy {
				return false
			}
			cx.Date = cy.Date
			if !reflect.DeepEqual(cx, cy) {
				return false
			}
		}
		x.Comments, y.Comments = nil, nil
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// decodeSeeds are the bodies the differential tests start from: the
// classic decoder traps of FuzzDecodeRequest plus every place the fast
// decoder draws its line.
var decodeSeeds = []string{
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
	// Escapes: \u with and without a surrogate pair, a lone surrogate, \/.
	`{"items":[{"item_id":"\u597d\u8bc4","item_name":"\ud83d\ude00 ok","comments":[{"comment_content":"a\/b\n\"q\"\\"}]}]}`,
	`{"items":[{"item_id":"\ud83d"}]}`,
	`{"items":[{"item_id":"\ude00\ud83d"}]}`,
	`{"items":[{"item_id":"\u00zz"}]}`,
	`{"items":[{"item_id":"tab	inside"}]}`,
	// Keys the fast decoder does not own.
	`{"ITEMS":[{"item_id":"a"}]}`,
	`{"items":[{"Item_ID":"a"}]}`,
	`{"items":[{"item\u005fid":"a"}]}`,
	`{"items":[{"item_id":"a","comments":[],"comments":[{"comment_id":"c"}]}]}`,
	`{"items":[{"comments":[{"date":"2018-06-01T08:00:00Z","date":"2019-06-01T08:00:00Z"}]}]}`,
	// Integers and what is not one.
	`{"items":[{"comments":[{"client_information":1e3}]}]}`,
	`{"items":[{"comments":[{"client_information":1.0}]}]}`,
	`{"items":[{"comments":[{"client_information":256}]}]}`,
	`{"items":[{"comments":[{"client_information":-0}]}]}`,
	`{"items":[{"comments":[{"client_information":3,"userExpValue":-0}]}]}`,
	`{"items":[{"price_cents":-0,"sales_volume":007}]}`,
	`{"items":[{"price_cents":12345678901234567890}]}`,
	`{"items":[{"price_cents":9223372036854775807,"sales_volume":-9223372036854775808}]}`,
	`{"items":[{"price_cents":9223372036854775808}]}`,
	`{"items":[{"label":2},{"label":-1}]}`,
	// Dates.
	`{"items":[{"comments":[{"date":"2018-06-01T08:00:00.123456789+08:00"}]}]}`,
	`{"items":[{"comments":[{"date":"2018-06-01T08:00:00,5Z"}]}]}`,
	`{"items":[{"comments":[{"date":"2018-06-01"}]}]}`,
	`{"items":[{"comments":[{"date":1527840000}]}]}`,
	`{"items":[{"comments":[{"date":null}]}]}`,
	// Whitespace everywhere JSON allows it; trailing bytes.
	" \t\r\n{ \"items\" : [ { \"item_id\" : \"a\" , \"comments\" : [ ] , \"sales_volume\" : 9 } , { } ] } \n",
	`{"items":[{"item_id":"a"}]} trailing`,
	`{"items":[{"item_id":"a"}]}{"items":[{"item_id":"b"}]}`,
	`{"items":[{"item_id":"a"},]}`,
	`{"items":[{"item_id":"a",}]}`,
	`{"items":[{"item_id":"a"}]`,
	`{}`,
}

// feedbackSeeds are the /v1/feedback bodies the differential tests start
// from: FuzzDecodeFeedback's corpus, then every line the fast decoder
// draws around an entry.
var feedbackSeeds = []string{
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
	`{"feedback":[{"item":{"item_id":"a"}}]}`,
	`{"feedback":[{"fraud":true,"item":{"item_id":"a"}}]}`,
	`{"feedback":[{"item":{"item_id":"a"},"fraud":null}]}`,
	`{"feedback":[{"item":{"item_id":"a"},"fraud":truely}]}`,
	`{"feedback":[{"item":{"item_id":"a"},"fraud":True}]}`,
	`{"feedback":[{"item":{"item_id":"a"},"fraud":1}]}`,
	`{"feedback":[{"item":{"item_id":"a"},"fraud":true,"note":"x"}]}`,
	`{"feedback":[{"item":{"item_id":"a"},"fraud":true,"fraud":false}]}`,
	`{"feedback":[{"item":{"item_id":"a"},"FRAUD":true}]}`,
	`{"feedback":[{"item":null,"fraud":true}]}`,
	`{"feedback":[{"item":{"item_id":"a"},"fraud":true},]}`,
	`{"feedback":[{"item":{"item_id":"a"},"fraud":true}],"tenant":"t"}`,
	`{"feedback":[{"item":{"item_id":"a"},"fraud":true}]} trailing`,
	`{"feedback":[{"item":{"item_id":"a"},"fraud":true}]`,
	" {\n \"feedback\" : [ { \"item\" : { \"item_id\" : \"a\" , \"sales_volume\" : 9 } , \"fraud\" : false } , {\"item\":{\"item_id\":\"b\",\"comments\":[{\"comment_content\":\"\\u597d\\u8bc4\"}]},\"fraud\":true} ] } ",
}

// feedbackBody is a canonical /v1/feedback body over generated items.
func feedbackBody(t testing.TB, entries []FeedbackEntry) []byte {
	t.Helper()
	body, err := json.Marshal(FeedbackRequest{Feedback: entries})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// checkFeedbackDifferential is the one-way contract for a feedback body:
// fast accepts ⇒ encoding/json accepts the same entries.
func checkFeedbackDifferential(t *testing.T, body []byte) {
	t.Helper()
	var fast, want FeedbackRequest
	if !fast.decodeFast(body) {
		return
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
		t.Fatalf("fast decoder accepted a feedback body encoding/json rejects (%v): %q", err, body)
	}
	same := len(fast.Feedback) == len(want.Feedback) && (fast.Feedback == nil) == (want.Feedback == nil)
	for i := 0; same && i < len(want.Feedback); i++ {
		same = fast.Feedback[i].Fraud == want.Feedback[i].Fraud &&
			sameItems([]ecom.Item{fast.Feedback[i].Item}, []ecom.Item{want.Feedback[i].Item})
	}
	if !same {
		t.Fatalf("feedback body %q:\n fast   %+v\n stdlib %+v", body, fast.Feedback, want.Feedback)
	}
}

// feedbackPair is two servers with a retrain loop each, alike except
// that the oracle sends every body through encoding/json.
type feedbackPair struct {
	fast, oracle     http.Handler
	fastTr, oracleTr *trainer.Trainer
	// base is eight labels, four of each class, fed behind every accepted
	// body: whatever the window (24) held, a forced cycle then gets as far
	// as hashing it and scoring a challenger on it.
	base []byte
}

func newFeedbackPair(t testing.TB) *feedbackPair {
	t.Helper()
	// A gain no challenger reaches: cycles evaluate and never promote.
	tcfg := trainer.Config{Window: 24, MinSamples: 1, MinClassSamples: 2, MinF1Gain: 2}
	opts := Options{MaxItems: 8, MaxBodyBytes: 1 << 16}
	srv, _, tr, _ := newTrainerService(t, tcfg, opts)
	oracle, _, oracleTr, _ := newTrainerService(t, tcfg, opts)
	oracle.stdlibOnly = true
	entries := shiftedEntries(501)
	return &feedbackPair{
		fast: srv.Handler(), oracle: oracle.Handler(), fastTr: tr, oracleTr: oracleTr,
		base: feedbackBody(t, append(entries[:4:4], entries[len(entries)-4:]...)),
	}
}

// post sends body to both servers and requires the same answer: status,
// accepted count, and — whenever the window took it — the same Decision
// from a forced cycle, which carries the window's hash and, through the
// holdout scores, its texts.
func (p *feedbackPair) post(t testing.TB, body []byte) {
	t.Helper()
	send := func(h http.Handler, body []byte) (int, FeedbackResponse) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/feedback", bytes.NewReader(body)))
		var out FeedbackResponse
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatal(err)
			}
		}
		return rec.Code, out
	}
	got, gotOut := send(p.fast, body)
	want, wantOut := send(p.oracle, body)
	if got != want || gotOut != wantOut {
		t.Fatalf("/v1/feedback answered %d %+v, encoding/json alone %d %+v, for body %q", got, gotOut, want, wantOut, body)
	}
	if got != http.StatusOK {
		return
	}
	for _, h := range []http.Handler{p.fast, p.oracle} {
		if code, _ := send(h, p.base); code != http.StatusOK {
			t.Fatalf("base labels answered %d", code)
		}
	}
	d, err := p.fastTr.RunCycle(context.Background(), DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	wantD, err := p.oracleTr.RunCycle(context.Background(), DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	if d != wantD || d.WindowHash == "" {
		t.Fatalf("windows differ after body %q:\n fast   %+v\n stdlib %+v", body, d, wantD)
	}
}

// TestFastDecoderAgreesWithStdlib states the decoder's contract on a
// fixed corpus: whatever it accepts, encoding/json accepts with the same
// items; the canonical encoding is accepted; and each construct it is
// documented to leave to encoding/json is declined.
func TestFastDecoderAgreesWithStdlib(t *testing.T) {
	for _, body := range append([]string{string(coldBody(t))}, decodeSeeds...) {
		checkDetectDifferential(t, []byte(body))
	}

	accepts := func(body string) bool {
		var req DetectRequest
		return req.decodeFast([]byte(body))
	}
	for _, body := range []string{
		string(coldBody(t)),
		`{"items":[]}`,
		`{"items":[{}]}`,
		`{"items":[{"item_id":"\u597d\u8bc4","item_name":"\ud83d\ude00 ok","comments":[{"comment_content":"a\/b\n\"q\"\\"}]}]}`,
		`{"items":[{"price_cents":-0,"comments":[{"client_information":3,"userExpValue":-0}]}]}`,
		`{"items":[{"price_cents":9223372036854775807,"sales_volume":-9223372036854775808}]}`,
		`{"items":[{"comments":[{"date":"2018-06-01T08:00:00.123456789+08:00"}]}]}`,
		" \t\r\n{ \"items\" : [ { \"item_id\" : \"a\" , \"comments\" : [ ] , \"sales_volume\" : 9 } , { } ] } \n",
	} {
		if !accepts(body) {
			t.Errorf("fast decoder declined a canonical body: %.80q", body)
		}
	}
	for _, body := range []string{
		`{"items":null}`,
		`{"ITEMS":[{"item_id":"a"}]}`,
		`{"items":[{"Item_ID":"a"}]}`,
		`{"items":[{"item_id":"a","unknown":1}]}`,
		`{"items":[{"item_id":"a","item_id":"b"}]}`,
		`{"items":[{"comments":[{"client_information":1e3}]}]}`,
		`{"items":[{"comments":[{"client_information":1.0}]}]}`,
		`{"items":[{"comments":[{"client_information":256}]}]}`,
		`{"items":[{"comments":[{"client_information":-0}]}]}`,
		`{"items":[{"price_cents":12345678901234567890}]}`,
		`{"items":[{"price_cents":9223372036854775808}]}`,
		`{"items":[{"sales_volume":007}]}`,
		`{"items":[{"comments":[{"date":null}]}]}`,
		`{"items":[{"item_id":"\ud83d"}]}`,
		"{\"items\":[{\"item_id\":\"\xff\xfe\"}]}",
		`{"items":[{"item_id":"a"}]} trailing`,
		`{"items":[[]]}`,
	} {
		if accepts(body) {
			t.Errorf("fast decoder accepted %q, which belongs to encoding/json", body)
		}
	}

	// /v1/feedback: the same contract, and a declined body means what
	// encoding/json says it means.
	pair := newFeedbackPair(t)
	canonical := string(feedbackBody(t, shiftedEntries(502)[:6]))
	for _, body := range append([]string{canonical}, feedbackSeeds...) {
		checkFeedbackDifferential(t, []byte(body))
		pair.post(t, []byte(body))
	}
	acceptsFeedback := func(body string) bool {
		var req FeedbackRequest
		return req.decodeFast([]byte(body))
	}
	for _, body := range []string{
		canonical,
		`{"feedback":[]}`,
		`{"feedback":[{"item":{"item_id":"a"},"fraud":true}]}`,
		`{"feedback":[{"item":{},"fraud":false}]}`,
		feedbackSeeds[len(feedbackSeeds)-1],
	} {
		if !acceptsFeedback(body) {
			t.Errorf("fast decoder declined a canonical feedback body: %.80q", body)
		}
	}
	for _, body := range []string{
		`{"feedback":null}`,
		`{"feedback":[{}]}`,
		`{"feedback":[{"item":{"item_id":"a"}}]}`,
		`{"feedback":[{"fraud":true,"item":{"item_id":"a"}}]}`,
		`{"feedback":[{"item":{"item_id":"a"},"fraud":"yes"}]}`,
		`{"feedback":[{"item":{"item_id":"a"},"fraud":null}]}`,
		`{"feedback":[{"item":{"item_id":"a"},"fraud":truely}]}`,
		`{"feedback":[{"item":{"item_id":"a"},"fraud":1}]}`,
		`{"feedback":[{"item":{"item_id":"a"},"fraud":true,"note":"x"}]}`,
		`{"feedback":[{"item":{"item_id":"a"},"fraud":true,"fraud":false}]}`,
		`{"feedback":[{"item":null,"fraud":true}]}`,
		`{"feedback":[{"item":{"item_id":"a"},"fraud":true}],"tenant":"t"}`,
		`{"feedback":[{"item":{"item_id":"a"},"fraud":true}]} trailing`,
		`{"FEEDBACK":[{"item":{"item_id":"a"},"fraud":true}]}`,
	} {
		if acceptsFeedback(body) {
			t.Errorf("fast decoder accepted feedback %q, which belongs to encoding/json", body)
		}
	}
}

// checkDetectDifferential asserts the one-way contract on one body, for
// both request types: fast accepts ⇒ encoding/json accepts the same.
func checkDetectDifferential(t *testing.T, body []byte) {
	t.Helper()
	var fast DetectRequest
	if fast.decodeFast(body) {
		want, err := stdlibDetect(body)
		if err != nil {
			t.Fatalf("fast decoder accepted a detect body encoding/json rejects (%v): %q", err, body)
		}
		if !sameItems(fast.Items, want.Items) {
			t.Fatalf("detect body %q:\n fast   %+v\n stdlib %+v", body, fast.Items, want.Items)
		}
	}
	var fastEx ExplainRequest
	if fastEx.decodeFast(body) {
		var want ExplainRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
			t.Fatalf("fast decoder accepted an explain body encoding/json rejects (%v): %q", err, body)
		}
		if !sameItems([]ecom.Item{fastEx.Item}, []ecom.Item{want.Item}) {
			t.Fatalf("explain body %q:\n fast   %+v\n stdlib %+v", body, fastEx.Item, want.Item)
		}
	}
}

// TestDecodedItemsShareNothingWithTheBuffer pins the lifetime rule: the
// read buffer goes back to the pool when the handler returns, while a
// dispatch flight may still hold the items, so no decoded item may alias
// it — with or without escapes in its strings.
func TestDecodedItemsShareNothingWithTheBuffer(t *testing.T) {
	first := coldBody(t)
	first = bytes.Replace(first, []byte(`"item_name":"`), []byte(`"item_name":"\u597d\/`), 1)
	second, err := json.Marshal(DetectRequest{Items: []ecom.Item{{ID: "other", Comments: []ecom.Comment{{Content: "different"}}}}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := stdlibDetect(first)
	if err != nil {
		t.Fatal(err)
	}

	// Through the handler's own read path: decode, return the buffer,
	// decode a different body.
	srv, _, _ := newTestService(t, Options{})
	decode := func(body []byte) DetectRequest {
		t.Helper()
		var req DetectRequest
		r := httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(body))
		if err := srv.decodeItems(httptest.NewRecorder(), r, srv.detectDecodes, &req); err != nil {
			t.Fatal(err)
		}
		return req
	}
	fastBefore := srv.detectDecodes.fast.Value()
	got := decode(first)
	decode(second)
	if srv.detectDecodes.fast.Value() != fastBefore+2 {
		t.Fatal("the fast decoder declined a canonical body; this test would be checking encoding/json")
	}
	if !sameItems(got.Items, want.Items) {
		t.Error("items changed after their read buffer was reused for another request")
	}

	// And deterministically, whatever the pool did: overwrite the bytes
	// the decoder was given.
	buf := bytes.Clone(first)
	var req DetectRequest
	if !req.decodeFast(buf) {
		t.Fatal("fast decoder declined the body")
	}
	for i := range buf {
		buf[i] = 'x'
	}
	if !sameItems(req.Items, want.Items) {
		t.Error("decoded items alias the caller's buffer")
	}

	// Feedback outlives its request by hours, in the retrain window: feed
	// a decoded body, overwrite the bytes it was decoded from, and read
	// the window back through a cycle. It must decide what a window fed
	// the same entries by encoding/json decides — hash, challenger and
	// holdout scores, which only the comments' texts explain.
	tcfg := trainer.Config{MinSamples: 40}
	_, _, tr, _ := newTrainerService(t, tcfg, Options{})
	_, _, wantTr, _ := newTrainerService(t, tcfg, Options{})
	cycle := func(tr *trainer.Trainer, decode func(*FeedbackRequest, []byte) bool) trainer.Decision {
		t.Helper()
		buf := feedbackBody(t, shiftedEntries(501))
		var req FeedbackRequest
		if !decode(&req, buf) {
			t.Fatal("feedback body not decoded")
		}
		if _, err := tr.Feed(DefaultTenant, req.Feedback); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 'x'
		}
		d, err := tr.RunCycle(context.Background(), DefaultTenant)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	gotD := cycle(tr, (*FeedbackRequest).decodeFast)
	wantD := cycle(wantTr, func(req *FeedbackRequest, body []byte) bool { return json.Unmarshal(body, req) == nil })
	if gotD != wantD || gotD.ChallengerVersion == "" {
		t.Errorf("window read back after its request's buffer was overwritten:\n got  %+v\n want %+v", gotD, wantD)
	}
}

// resetBody is a request body a test rewinds instead of rebuilding.
type resetBody struct{ bytes.Reader }

func (*resetBody) Close() error { return nil }

// TestDecodeItemsSteadyStateAllocations: with bodyPool warm, reading a
// request allocates what decoding its bytes allocates plus two, the
// MaxBytesReader and the request value behind its interface — the read
// buffer comes out of the pool and goes back into it. A buffer that
// does not go back shows as two more again (the bytes.Buffer and its
// array) on every request.
func TestDecodeItemsSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	srv, _, _ := newTestService(t, Options{})
	body := coldBody(t)
	decodeOnly := testing.AllocsPerRun(100, func() {
		var req DetectRequest
		if !req.decodeFast(body) {
			t.Fatal("fast decoder declined the canonical body")
		}
	})
	rd := new(resetBody)
	r := httptest.NewRequest(http.MethodPost, "/v1/detect", rd)
	r.ContentLength = int64(len(body))
	w := httptest.NewRecorder()
	read := func() {
		rd.Reset(body)
		var req DetectRequest
		if err := srv.decodeItems(w, r, srv.detectDecodes, &req); err != nil {
			t.Fatal(err)
		}
	}
	read() // warm the pool
	if allocs := testing.AllocsPerRun(100, read); allocs > decodeOnly+2 {
		t.Fatalf("decodeItems allocated %.0f times per request, decoding alone %.0f: want at most two more", allocs, decodeOnly)
	}
}

// TestOversizedBodyIs413WhateverItHolds: the body is read to the cap
// before it is decoded, so a complete JSON value followed by padding
// past the cap is too large, not valid.
func TestOversizedBodyIs413WhateverItHolds(t *testing.T) {
	_, ts, _ := newTestService(t, Options{MaxBodyBytes: 64})
	body := `{"items":[{"item_id":"a","sales_volume":9}]}` + strings.Repeat(" ", 100)
	resp, _ := postDetect(t, ts.URL, []byte(body))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", resp.StatusCode)
	}

	_, ts, tr, _ := newTrainerService(t, trainer.Config{}, Options{MaxBodyBytes: 64})
	body = `{"feedback":[{"item":{"item_id":"a"},"fraud":true}]}` + strings.Repeat(" ", 100)
	fb, err := http.Post(ts.URL+"/v1/feedback", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	fb.Body.Close()
	if fb.StatusCode != http.StatusRequestEntityTooLarge || len(tr.Status()) != 0 {
		t.Errorf("/v1/feedback status = %d, trainer status %+v, want 413 and an untouched window", fb.StatusCode, tr.Status())
	}
}

// BenchmarkDecodeDetect is the decode layer on a serve_cold-shaped body,
// by both decoders.
func BenchmarkDecodeDetect(b *testing.B) {
	body := coldBody(b)
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := stdlibDetect(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req DetectRequest
			if !req.decodeFast(body) {
				b.Fatal("fast decoder declined the canonical body")
			}
		}
	})
}

// BenchmarkDecodeFeedback is the decode layer on a serve_hot-shaped
// feedback body — 8 entries of 40 comments — by both decoders.
func BenchmarkDecodeFeedback(b *testing.B) {
	u := synth.Generate(synth.Config{
		Name: "decode-feedback", Seed: 96, FraudEvidence: 3, Normal: 5,
		FraudCommentsMin: 40, FraudCommentsMax: 40, NormalCommentsMin: 40, NormalCommentsMax: 40,
	})
	entries := make([]FeedbackEntry, len(u.Dataset.Items))
	for i, it := range u.Dataset.Items {
		entries[i] = FeedbackEntry{Item: it, Fraud: it.Label.IsFraud()}
	}
	body := feedbackBody(b, entries)
	for _, c := range []struct {
		name   string
		decode func(*FeedbackRequest) bool
	}{
		{"stdlib", func(req *FeedbackRequest) bool { return json.NewDecoder(bytes.NewReader(body)).Decode(req) == nil }},
		{"fast", func(req *FeedbackRequest) bool { return req.decodeFast(body) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				var req FeedbackRequest
				if !c.decode(&req) || len(req.Feedback) != len(entries) {
					b.Fatal("feedback body not decoded")
				}
			}
		})
	}
}
