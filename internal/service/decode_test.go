package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ecom"
	"repro/internal/synth"
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
