package service

import (
	"bytes"
	"net/http"
	"sync"

	"repro/internal/ecom"
)

// Request-body decoding for /v1/detect, /v1/explain and /v1/feedback
// (DESIGN.md §17): each route's envelope around ecom.Item values, walked
// by ecom.Decoder's member loop as an item is, with encoding/json's
// meaning (the ecom package comment has the contract). The decoder's
// error — "ecom: offset N: …" — is the 400 text. The items come out
// projected — Texts, no Comments — the one shape dispatch, drift and the
// trainer see.
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

// itemBody is a request type ecom.Decoder reads.
type itemBody interface{ read(d *ecom.Decoder) }

func (r *DetectRequest) read(d *ecom.Decoder) {
	if d.Object() {
		for d.Member([]string{"items"}) == 0 {
			ecom.List(d, "items", &r.Items, 16, d.Item)
		}
	}
}

func (r *ExplainRequest) read(d *ecom.Decoder) {
	if d.Object() {
		for d.Member([]string{"item"}) == 0 {
			d.Item(&r.Item)
		}
	}
}

func (r *FeedbackRequest) read(d *ecom.Decoder) {
	if d.Object() {
		for d.Member([]string{"feedback"}) == 0 {
			ecom.List(d, "feedback", &r.Feedback, 8, func(e *FeedbackEntry) {
				if d.Object() {
					// FeedbackEntry's json tags, in field order.
					keys := []string{"item", "fraud"}
					for f := d.Member(keys); f >= 0; f = d.Member(keys) {
						if f == 0 {
							d.Item(&e.Item)
						} else {
							d.Bool(&e.Fraud)
						}
					}
				}
			})
		}
	}
}

// decodeBody reads body into req with a pooled decoder. A decoder that
// read a body over maxPooledBody is dropped: its scratch grew with the
// body.
func decodeBody(req itemBody, body []byte) error {
	d := decoderPool.Get().(*ecom.Decoder)
	d.Body(body)
	req.read(d)
	err := d.End()
	d.Body(nil)
	if len(body) <= maxPooledBody {
		decoderPool.Put(d)
	}
	return err
}

// decodeItems reads the request body, capped at MaxBodyBytes, into a
// pooled buffer and decodes it into req. A body over the cap is an
// *http.MaxBytesError whatever it holds.
func (s *Server) decodeItems(w http.ResponseWriter, r *http.Request, req itemBody) error {
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
	return decodeBody(req, buf.Bytes())
}
