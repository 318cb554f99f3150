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

	"repro/internal/dispatch"
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

// project gives a row item the projected shape the decoder hands out:
// its contents as Texts, no Comments.
func project(it *ecom.Item) { it.Texts, it.Comments = it.AppendTexts(nil), nil }

// unmarshal is the decoder's oracle: json.Unmarshal of body into req —
// not json.NewDecoder, which ignores what follows the value — with every
// item projected.
func unmarshal(body []byte, req itemBody) error {
	err := json.Unmarshal(body, req)
	switch r := req.(type) {
	case *DetectRequest:
		for i := range r.Items {
			project(&r.Items[i])
		}
	case *ExplainRequest:
		project(&r.Item)
	case *FeedbackRequest:
		for i := range r.Feedback {
			project(&r.Feedback[i].Item)
		}
	}
	return err
}

// refusesMerge reports whether an error text is the decoder's one
// refusal of a body encoding/json accepts: a list key repeated after a
// non-empty list.
func refusesMerge(text string) bool {
	return strings.Contains(text, "repeated after a non-empty list")
}

// checkBody is the contract on one body for one request type: decodeBody
// accepts it iff json.Unmarshal does — but for a list key repeated after
// a non-empty list, which it refuses naming the key — and then as the
// same request, its items projected. Every refusal names its offset.
func checkBody(t *testing.T, body []byte, got, want itemBody) (accepted bool) {
	t.Helper()
	err := decodeBody(got, body)
	switch werr := unmarshal(body, want); {
	case err != nil && (werr != nil || refusesMerge(err.Error())):
		if !strings.HasPrefix(err.Error(), "ecom: offset ") {
			t.Fatalf("%T: error %q names no offset", got, err)
		}
		return false
	case err != nil:
		t.Fatalf("%T: refused a body encoding/json accepts (%v): %q", got, err, body)
	case werr != nil:
		t.Fatalf("%T: accepted a body encoding/json rejects (%v): %q", got, werr, body)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%T, body %q:\n decoder %+v\n stdlib  %+v", got, body, got, want)
	}
	return true
}

// checkDetectDifferential is checkBody for both item request types.
func checkDetectDifferential(t *testing.T, body []byte) {
	t.Helper()
	checkBody(t, body, new(DetectRequest), new(DetectRequest))
	checkBody(t, body, new(ExplainRequest), new(ExplainRequest))
}

// checkFeedbackDifferential is checkBody for a feedback body.
func checkFeedbackDifferential(t *testing.T, body []byte) {
	t.Helper()
	checkBody(t, body, new(FeedbackRequest), new(FeedbackRequest))
}

// decodeSeeds are the bodies the differential tests start from: the
// classic decoder traps of FuzzDecodeRequest plus every place a
// single-pass decoder could part from encoding/json.
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
	// Folded, escaped and repeated keys.
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
// from: FuzzDecodeFeedback's corpus, then bodies around every place an
// entry could be read otherwise than encoding/json reads it.
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

// reencode is what json.Unmarshal makes of body as req, written back by
// json.Marshal: the canonical body of the same request. ok is false when
// encoding/json rejects body.
func reencode(t testing.TB, body []byte, req any) (canonical []byte, ok bool) {
	t.Helper()
	if json.Unmarshal(body, req) != nil {
		return nil, false
	}
	canonical, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return canonical, true
}

// maxFeedbackBody is the body cap of the server a feedbackPair is sent
// bodies as they are.
const maxFeedbackBody = 1 << 16

// feedbackPair is two servers with a retrain loop each: one is sent each
// body as it is, the other its canonical re-encoding (reencode).
type feedbackPair struct {
	srv, oracle     http.Handler
	srvTr, oracleTr *trainer.Trainer
	// base is eight labels, four of each class, fed behind every accepted
	// body: whatever the window (24) held, a forced cycle then gets as far
	// as hashing it and scoring a challenger on it.
	base []byte
}

func newFeedbackPair(t testing.TB) *feedbackPair {
	t.Helper()
	// A gain no challenger reaches: cycles evaluate and never promote.
	tcfg := trainer.Config{Window: 24, MinSamples: 1, MinClassSamples: 2, MinF1Gain: 2}
	srv, _, tr, _ := newTrainerService(t, tcfg, Options{MaxItems: 8, MaxBodyBytes: maxFeedbackBody})
	// A re-encoding can outgrow its body: the oracle takes any size.
	oracle, _, oracleTr, _ := newTrainerService(t, tcfg, Options{MaxItems: 8})
	entries := shiftedEntries(501)
	return &feedbackPair{
		srv: srv.Handler(), oracle: oracle.Handler(), srvTr: tr, oracleTr: oracleTr,
		base: feedbackBody(t, append(entries[:4:4], entries[len(entries)-4:]...)),
	}
}

// send posts body to h's /v1/feedback and returns the status, the
// response as text, and the accepted count of a 200.
func send(t testing.TB, h http.Handler, body []byte) (int, string, FeedbackResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/feedback", bytes.NewReader(body)))
	var out FeedbackResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Code, rec.Body.String(), out
}

// post sends body to one server and its canonical re-encoding to the
// other, and requires the same answer: status, accepted count, and —
// whenever the window took it — the same Decision from a forced cycle,
// which carries the window's hash and, through the holdout scores, its
// texts. A body encoding/json rejects goes to the first alone, which
// must refuse it and leave its window as it was.
func (p *feedbackPair) post(t testing.TB, body []byte) {
	t.Helper()
	seen := func() uint64 {
		for _, st := range p.srvTr.Status() {
			return st.WindowSeen
		}
		return 0
	}
	before := seen()
	got, text, gotOut := send(t, p.srv, body)
	canonical, ok := reencode(t, body, new(FeedbackRequest))
	switch {
	case !ok && (got == http.StatusOK || seen() != before):
		t.Fatalf("/v1/feedback answered %d to a body encoding/json rejects, window %d -> %d: %q", got, before, seen(), body)
	case !ok, got == http.StatusRequestEntityTooLarge && len(body) > maxFeedbackBody,
		got != http.StatusOK && refusesMerge(text):
		return
	}
	want, _, wantOut := send(t, p.oracle, canonical)
	if got != want || gotOut != wantOut {
		t.Fatalf("/v1/feedback answered %d %+v, its canonical re-encoding %d %+v, for body %q", got, gotOut, want, wantOut, body)
	}
	if got != http.StatusOK {
		return
	}
	for _, h := range []http.Handler{p.srv, p.oracle} {
		if code, _, _ := send(t, h, p.base); code != http.StatusOK {
			t.Fatalf("base labels answered %d", code)
		}
	}
	d, err := p.srvTr.RunCycle(context.Background(), DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	wantD, err := p.oracleTr.RunCycle(context.Background(), DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	if d != wantD || d.WindowHash == "" {
		t.Fatalf("windows differ after body %q:\n sent     %+v\n re-encoded %+v", body, d, wantD)
	}
}

// TestFastDecoderAgreesWithStdlib states the decoder's contract on a
// fixed corpus, on every route: it accepts a body iff json.Unmarshal
// does, with the same items — the lists below spell out which way each
// unusual body goes — and refuses the one body encoding/json accepts
// that it does not, a list key repeated after a non-empty list, with an
// error naming the key.
func TestFastDecoderAgreesWithStdlib(t *testing.T) {
	for _, body := range append([]string{string(coldBody(t))}, decodeSeeds...) {
		checkDetectDifferential(t, []byte(body))
	}
	for _, c := range []struct {
		accepts, rejects []string
		req              func() itemBody
	}{
		{detectAccepts, detectRejects, func() itemBody { return new(DetectRequest) }},
		{explainAccepts, explainRejects, func() itemBody { return new(ExplainRequest) }},
		{feedbackAccepts, feedbackRejects, func() itemBody { return new(FeedbackRequest) }},
	} {
		for _, body := range c.accepts {
			if !checkBody(t, []byte(body), c.req(), c.req()) {
				t.Errorf("%T: refused %.80q, which encoding/json accepts", c.req(), body)
			}
		}
		for _, body := range c.rejects {
			if checkBody(t, []byte(body), c.req(), c.req()) {
				t.Errorf("%T: accepted %.80q, which encoding/json rejects", c.req(), body)
			}
		}
	}

	// The refusals, each naming its key where its repeat begins.
	for _, c := range []struct {
		req  itemBody
		body string
		want string
	}{
		{new(DetectRequest), `{"items":[{"item_id":"a"}],"items":[{"item_id":"b"}]}`, `ecom: offset 35: key "items"`},
		{new(ExplainRequest), `{"item":{"comments":[{"comment_content":"A"}]},"item":{"comments":[]}}`, `ecom: offset 66: key "comments"`},
		{new(FeedbackRequest), `{"feedback":[{"item":{}}],"feedback":[]}`, `ecom: offset 37: key "feedback"`},
	} {
		if err := decodeBody(c.req, []byte(c.body)); err == nil || !strings.HasPrefix(err.Error(), c.want+" repeated after a non-empty list") {
			t.Errorf("%T %s: %v, want %q…", c.req, c.body, err, c.want)
		}
		if err := unmarshal([]byte(c.body), c.req); err != nil {
			t.Errorf("%T %s: encoding/json rejects it too (%v); the case tests nothing", c.req, c.body, err)
		}
	}

	// What encoding/json means, spelled out: folded keys, the last of a
	// repeated key, U+FFFD, and null leaving a field as it was.
	var req DetectRequest
	if err := decodeBody(&req, []byte(`{"ITEMS":[{"\u017fhop_id":"s","ITEM_ID":"a","item_id":"b","item_name":"\ud83d","category":"`+"\xff"+`","price_cents":7,"price_cents":null}]}`)); err != nil {
		t.Fatal(err)
	}
	if it := req.Items[0]; len(req.Items) != 1 || it.ShopID != "s" || it.ID != "b" || it.Name != "\uFFFD" || it.Category != "\uFFFD" || it.PriceCents != 7 {
		t.Errorf("items %+v", req.Items)
	}

	// /v1/feedback: a server sent a body answers as one sent its canonical
	// re-encoding does.
	pair := newFeedbackPair(t)
	canonical := string(feedbackBody(t, shiftedEntries(502)[:6]))
	for _, body := range append(append([]string{canonical}, feedbackSeeds...), feedbackAccepts...) {
		checkFeedbackDifferential(t, []byte(body))
		pair.post(t, []byte(body))
	}
}

// nested is an item whose unknown key holds arrays nested n deep.
func nested(n int) string {
	return `{"item_id":"deep","x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`
}

// detectAccepts and detectRejects, and their explain and feedback twins,
// are bodies around every place the decoder could part from
// encoding/json, sorted by its verdict. Nesting is limited as
// encoding/json limits it: 10,000 objects and arrays open at once.
var (
	detectAccepts = []string{
		`{"items":[]}`,
		`{"items":null}`,
		`{"items":[{}]}`,
		`{"items":[null,{"item_id":"a"},null]}`,
		`{"items":[{"item_id":"\u597d\u8bc4","item_name":"\ud83d\ude00 ok","comments":[{"comment_content":"a\/b\n\"q\"\\"}]}]}`,
		`{"items":[{"price_cents":-0,"comments":[{"client_information":3,"userExpValue":-0}]}]}`,
		`{"items":[{"price_cents":9223372036854775807,"sales_volume":-9223372036854775808}]}`,
		`{"items":[{"comments":[{"date":"2018-06-01T08:00:00.123456789+08:00"}]}]}`,
		" \t\r\n{ \"items\" : [ { \"item_id\" : \"a\" , \"comments\" : [ ] , \"sales_volume\" : 9 } , { } ] } \n",
		`{"ITEMS":[{"item_id":"a"}]}`,
		`{"items":[{"Item_ID":"a"}]}`,
		`{"items":[{"item\u005fid":"a"}]}`,
		"{\"items\":[{\"\u017fhop_id\":\"s\",\"ITEM_ID\":\"a\",\"item_id\":\"b\",\"comments\":[{\"nic\u212aname\":\"n\"}]}]}",
		`{"items":[{"item_id":"a","unknown":1}],"tenant":{"x":[1.5e-3,true,null,"s"]}}`,
		`{"items":[{"item_id":"a","item_id":"b"}]}`,
		`{"items":[{"item_id":"a","comments":[],"comments":[{"comment_id":"c"}]}]}`,
		`{"items":[{"comments":[{"date":"2018-06-01T08:00:00Z","date":"2019-06-01T08:00:00Z"}]}]}`,
		`{"items":[{"comments":[{"comment_content":"a","comment_content":"b"},{"comment_content":"c","comment_content":null}]}]}`,
		`{"items":[{"comments":[{"date":null}]}]}`,
		`{"items":[{"comments":[null,{}]}]}`,
		`{"items":[{"item_id":null,"shop_id":null,"item_name":null,"category":null,"price_cents":null,"sales_volume":null,"comments":null,"label":null}]}`,
		`{"items":[{"comments":[{"comment_id":null,"item_id":null,"comment_content":null,"user_id":null,"nickname":null,"userExpValue":null,"client_information":null,"date":null}]}]}`,
		`{"items":[{"item_id":"\ud83d"}]}`,
		`{"items":[{"item_id":"\ude00\ud83d"}]}`,
		"{\"items\":[{\"item_id\":\"\xff\xfe\",\"comments\":[{\"comment_content\":\"\xff\"}]}]}",
		`null`,
		`{}`,
		`{"items":[` + nested(9997) + `]}`,
	}
	detectRejects = []string{
		`{"items":[{"comments":[{"client_information":1e3}]}]}`,
		`{"items":[{"comments":[{"client_information":1.0}]}]}`,
		`{"items":[{"comments":[{"client_information":256}]}]}`,
		`{"items":[{"comments":[{"client_information":-0}]}]}`,
		`{"items":[{"price_cents":12345678901234567890}]}`,
		`{"items":[{"price_cents":9223372036854775808}]}`,
		`{"items":[{"sales_volume":007}]}`,
		`{"items":[{"item_id":"a"}]} trailing`,
		`{"items":[{"item_id":"a"}]}{"items":[{"item_id":"b"}]}`,
		`{"items":[[]]}`,
		`{"items":[{"item_id":"a","unknown":[1,]}]}`,
		`{"items":[{"item_id":"a","unknown":"\q"}]}`,
		`{"items":[` + nested(9998) + `]}`,
		``,
		`[]`,
	}
	explainAccepts = []string{
		`{"item":{"item_id":"a","comments":[{"comment_content":"x"}]}}`,
		`{"item":null}`,
		`null`,
		`{"ITEM":{"item_id":"a"},"other":[]}`,
		`{"item":{"item_id":"a","comments":[{"comment_content":"x"}]},"item":{"shop_id":"s"}}`,
		`{"item":{"item_id":"a","comments":[]},"item":{"comments":[{"comment_content":"x"}]}}`,
		`{"item":` + nested(9998) + `}`,
	}
	explainRejects = []string{
		`{"item":{"item_id":"a"}} {}`,
		`{"item":[]}`,
		`{"item":` + nested(9999) + `}`,
	}
	feedbackAccepts = []string{
		`{"feedback":[]}`,
		`{"feedback":null}`,
		`{"feedback":[{}]}`,
		`{"feedback":[null]}`,
		`{"feedback":[{"item":{"item_id":"a"},"fraud":true}]}`,
		`{"feedback":[{"item":{},"fraud":false}]}`,
		`{"feedback":[{"item":{"item_id":"a"}}]}`,
		`{"feedback":[{"fraud":true,"item":{"item_id":"a"}}]}`,
		`{"feedback":[{"item":{"item_id":"a"},"fraud":null}]}`,
		`{"feedback":[{"item":{"item_id":"a"},"fraud":true,"note":"x"}]}`,
		`{"feedback":[{"item":{"item_id":"a"},"fraud":true,"fraud":false}]}`,
		`{"feedback":[{"item":null,"fraud":true}]}`,
		`{"feedback":[{"item":{"item_id":"a"},"fraud":true}],"tenant":"t"}`,
		`{"FEEDBACK":[{"Item":{"item_id":"a"},"FRAUD":true}]}`,
		`{"feedback":[{"item":{"item_id":"a","comments":[{"comment_content":"x"}]},"item":{"shop_id":"s"},"fraud":true}]}`,
		`{"feedback":[],"feedback":[{"item":{"item_id":"a"},"fraud":true}]}`,
		" {\n \"feedback\" : [ { \"item\" : { \"item_id\" : \"a\" , \"sales_volume\" : 9 } , \"fraud\" : false } , {\"item\":{\"item_id\":\"b\",\"comments\":[{\"comment_content\":\"\\u597d\\u8bc4\"}]},\"fraud\":true} ] } ",
	}
	feedbackRejects = []string{
		`{"feedback":[{"item":{"item_id":"a"},"fraud":"yes"}]}`,
		`{"feedback":[{"item":{"item_id":"a"},"fraud":truely}]}`,
		`{"feedback":[{"item":{"item_id":"a"},"fraud":True}]}`,
		`{"feedback":[{"item":{"item_id":"a"},"fraud":1}]}`,
		`{"feedback":[{"item":{"item_id":"a"},"fraud":true},]}`,
		`{"feedback":[{"item":{"item_id":"a"},"fraud":true}]} trailing`,
		`{"feedback":[{"item":{"item_id":"a"},"fraud":true}]`,
		`{"feedback":"not-a-list"}`,
	}
)

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
	var want DetectRequest
	if err := unmarshal(first, &want); err != nil {
		t.Fatal(err)
	}

	// Through the handler's own read path: decode, return the buffer,
	// decode a different body.
	srv, _, _ := newTestService(t, Options{}, dispatch.Options{})
	decode := func(body []byte) DetectRequest {
		t.Helper()
		var req DetectRequest
		r := httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(body))
		if err := srv.decodeItems(httptest.NewRecorder(), r, &req); err != nil {
			t.Fatal(err)
		}
		return req
	}
	got := decode(first)
	decode(second)
	if !reflect.DeepEqual(got.Items, want.Items) {
		t.Error("items changed after their read buffer was reused for another request")
	}

	// And deterministically, whatever the pool did: overwrite the bytes
	// the decoder was given.
	buf := bytes.Clone(first)
	var req DetectRequest
	if err := decodeBody(&req, buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 'x'
	}
	if !reflect.DeepEqual(req.Items, want.Items) {
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
	cycle := func(tr *trainer.Trainer, decode func(itemBody, []byte) error) trainer.Decision {
		t.Helper()
		buf := feedbackBody(t, shiftedEntries(501))
		var req FeedbackRequest
		if err := decode(&req, buf); err != nil {
			t.Fatal(err)
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
	gotD := cycle(tr, decodeBody)
	wantD := cycle(wantTr, func(req itemBody, body []byte) error { return json.Unmarshal(body, req) })
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
// array) on every request. Decoding allocates what it hands out — the
// arena, the Texts' backing array, the items — from a warm decoderPool:
// a decoder that does not go back regrows its scratch on every request,
// a dozen allocations and more.
func TestDecodeItemsSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	srv, _, _ := newTestService(t, Options{}, dispatch.Options{})
	body := coldBody(t)
	decodeOnly := testing.AllocsPerRun(100, func() {
		var req DetectRequest
		if err := decodeBody(&req, body); err != nil {
			t.Fatal(err)
		}
	})
	if decodeOnly > 4 {
		t.Fatalf("decoding a canonical body allocated %.0f times, want at most 4 (arena, Texts, items, the request behind its interface)", decodeOnly)
	}
	rd := new(resetBody)
	r := httptest.NewRequest(http.MethodPost, "/v1/detect", rd)
	r.ContentLength = int64(len(body))
	w := httptest.NewRecorder()
	read := func() {
		rd.Reset(body)
		var req DetectRequest
		if err := srv.decodeItems(w, r, &req); err != nil {
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
	_, ts, _ := newTestService(t, Options{MaxBodyBytes: 64}, dispatch.Options{})
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

// BenchmarkDecodeDetect is the decode layer on a serve_cold-shaped body:
// fast, the service's decoder; stdlib, json.Unmarshal and the projection
// for reference.
func BenchmarkDecodeDetect(b *testing.B) {
	body := coldBody(b)
	for _, c := range []struct {
		name   string
		decode func(itemBody, []byte) error
	}{
		{"stdlib", func(req itemBody, body []byte) error { return unmarshal(body, req) }},
		{"fast", decodeBody},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				var req DetectRequest
				if err := c.decode(&req, body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeFeedback is the decode layer on a serve_hot-shaped
// feedback body — 8 entries of 40 comments — as BenchmarkDecodeDetect
// measures it.
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
		decode func(itemBody, []byte) error
	}{
		{"stdlib", func(req itemBody, body []byte) error { return unmarshal(body, req) }},
		{"fast", decodeBody},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				var req FeedbackRequest
				if c.decode(&req, body) != nil || len(req.Feedback) != len(entries) {
					b.Fatal("feedback body not decoded")
				}
			}
		})
	}
}
