package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"

	"repro/internal/ecom"
	"repro/internal/obs"
)

// Request-body decoding for /v1/detect, /v1/explain and /v1/feedback
// (DESIGN.md §17). Each body wraps ecom.Item values in one object
// (feedback pairs each with a fraud bit), almost always in the canonical
// encoding, which ecom.Decoder reads in one pass (its package comment
// has the contract); here is each route's envelope. A body it declines
// goes through encoding/json, the only source of 400 texts and of what
// an unusual body means (the Fuzz*Differential targets hold the two
// together). Either way the items come out projected — Texts, no
// Comments — the one shape dispatch, drift and the trainer see.
//
// Lifetime rule: nothing reachable from a decoded item may be pooled, as
// a dispatch flight can hold its submitter's item past the request. Only
// the read buffer and the decoder go back to their pools: every string
// an item has is cut from the arena Decoder.Body allocates per request.

// maxPooledBody is the largest read buffer bodyPool keeps: one 32 MiB
// request must not pin 32 MiB per pooled buffer for the process's life.
const maxPooledBody = 1 << 20

var (
	bodyPool    = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	decoderPool = sync.Pool{New: func() any { return new(ecom.Decoder) }}
)

// decodeMetrics counts, for one route, which decoder produced the
// request.
type decodeMetrics struct{ fast, stdlib *obs.Counter }

func newDecodeMetrics(reg *obs.Registry) (detect, explain, feedback decodeMetrics) {
	v := reg.CounterVec("cats_http_decode_total",
		"Request bodies decoded, by route (tenant-scoped variants count "+
			"under the bare route) and by path: fast (the single-pass decoder "+
			"for the canonical encoding) or stdlib (encoding/json, for every "+
			"body the fast decoder declined).", "route", "path")
	of := func(route string) decodeMetrics {
		return decodeMetrics{fast: v.With(route, "fast"), stdlib: v.With(route, "stdlib")}
	}
	return of("/v1/detect"), of("/v1/explain"), of("/v1/feedback")
}

// itemBody is a request type whose body ecom.Decoder can read.
type itemBody interface {
	// read fills the request from a canonical body, or reports false
	// having changed nothing.
	read(d *ecom.Decoder) bool
	// project turns the rows encoding/json filled the request with into
	// the projected items read would have.
	project()
}

func (r *DetectRequest) read(d *ecom.Decoder) bool {
	var items []ecom.Item
	if !d.Eat('{') || !d.Key("items") || !d.Items(&items) || !d.Eat('}') || !d.AtEnd() {
		return false
	}
	r.Items = items
	return true
}

func (r *DetectRequest) project() {
	for i := range r.Items {
		project(&r.Items[i])
	}
}

func (r *ExplainRequest) read(d *ecom.Decoder) bool {
	var it ecom.Item
	if !d.Eat('{') || !d.Key("item") || !d.Item(&it) || !d.Eat('}') || !d.AtEnd() {
		return false
	}
	r.Item = it
	return true
}

func (r *ExplainRequest) project() { project(&r.Item) }

// read takes {"feedback":[{"item":…,"fraud":true|false},…]} with each
// entry's keys in that order, as json.Marshal writes them.
func (r *FeedbackRequest) read(d *ecom.Decoder) bool {
	if !d.Eat('{') || !d.Key("feedback") || !d.Eat('[') {
		return false
	}
	out := make([]FeedbackEntry, 0, 8)
	for more, ok := !d.Eat(']'), true; more; {
		out = append(out, FeedbackEntry{})
		e := &out[len(out)-1]
		if !d.Eat('{') || !d.Key("item") || !d.Item(&e.Item) || !d.Eat(',') || !d.Key("fraud") {
			return false
		}
		if e.Fraud = d.Lit("true"); !(e.Fraud || d.Lit("false")) || !d.Eat('}') {
			return false
		}
		if more, ok = d.More(']'); !ok {
			return false
		}
	}
	if !d.Eat('}') || !d.AtEnd() {
		return false
	}
	r.Feedback = out
	return true
}

func (r *FeedbackRequest) project() {
	for i := range r.Feedback {
		project(&r.Feedback[i].Item)
	}
}

// project gives a row item the projected shape: its contents as Texts,
// no Comments.
func project(it *ecom.Item) { it.Texts, it.Comments = it.AppendTexts(nil), nil }

// decodeFast reads a canonical body into req with a pooled decoder, or
// reports false having changed nothing. A decoder that read a body over
// maxPooledBody is dropped: its scratch grew with the body.
func decodeFast(req itemBody, body []byte) bool {
	d := decoderPool.Get().(*ecom.Decoder)
	d.Body(body)
	ok := req.read(d)
	d.Body(nil)
	if len(body) <= maxPooledBody {
		decoderPool.Put(d)
	}
	return ok
}

// decodeItems reads the request body, capped at MaxBodyBytes, into a
// pooled buffer and decodes it into req: the single-pass decoder first,
// encoding/json over the same bytes when that declines, its rows then
// projected. A body over the cap is an *http.MaxBytesError whatever it
// holds.
func (s *Server) decodeItems(w http.ResponseWriter, r *http.Request, m decodeMetrics, req itemBody) error {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	if n := r.ContentLength; n > 0 {
		// One allocation for a declared length, but never more than the
		// pool would keep on a client's say-so. ReadFrom wants MinRead
		// spare to see EOF.
		buf.Grow(int(min(n, maxPooledBody-bytes.MinRead)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)); err != nil {
		return err
	}
	if !s.stdlibOnly && decodeFast(req, buf.Bytes()) {
		m.fast.Inc()
		return nil
	}
	m.stdlib.Inc()
	if err := json.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(req); err != nil {
		return err
	}
	req.project()
	return nil
}
