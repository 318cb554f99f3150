package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/ecom"
	"repro/internal/obs"
)

// Request-body decoding for /v1/detect, /v1/explain and /v1/feedback
// (DESIGN.md §17).
//
// All three bodies are ecom.Item values wrapped in one object (feedback
// pairs each with a fraud bit), and platform clients send them in the
// canonical encoding — what json.Marshal of the request type produces:
// the struct tags' exact keys, each at most once, integers as plain
// digits, no nulls. itemDecoder reads exactly that in one pass, handing
// out every string as a substring of one garbage-collected copy of the
// body. It is an accelerator for that encoding, not a second JSON
// dialect: on any byte it does not recognise it declines, and the same
// bytes go through encoding/json, which therefore stays the only source
// of 400 texts and of the meaning of every unusual body (the
// Fuzz*Differential targets hold the two together).
//
// Lifetime rule: nothing reachable from a decoded ecom.Item may be
// pooled. A dispatch flight keeps its submitter's item while its batch
// runs on its own context and serves other requests' waiters after the
// submitter has returned, so only the read buffer — which the items
// never alias — goes back to bodyPool. (trainer.Feed keeps no item.)

// maxPooledBody is the largest read buffer bodyPool keeps: one 32 MiB
// request must not pin 32 MiB per pooled buffer for the process's life.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

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

// itemBody is a request type whose body itemDecoder can read.
type itemBody interface {
	// decodeFast fills the request from a canonical body, or reports
	// false having changed nothing.
	decodeFast(body []byte) bool
}

func (r *DetectRequest) decodeFast(body []byte) bool {
	d := newItemDecoder(body)
	if !d.eat('{') || !d.key("items") || !d.items() || !d.eat('}') || !d.atEnd() {
		return false
	}
	r.Items = d.out
	return true
}

func (r *ExplainRequest) decodeFast(body []byte) bool {
	d := newItemDecoder(body)
	var it ecom.Item
	if !d.eat('{') || !d.key("item") || !d.item(&it) || !d.eat('}') || !d.atEnd() {
		return false
	}
	r.Item = it
	return true
}

// decodeFast reads {"feedback":[{"item":…,"fraud":true|false},…]} with
// each entry's keys in that order, as json.Marshal writes them.
func (r *FeedbackRequest) decodeFast(body []byte) bool {
	d := newItemDecoder(body)
	if !d.eat('{') || !d.key("feedback") || !d.eat('[') {
		return false
	}
	out := make([]FeedbackEntry, 0, 8)
	for more, ok := !d.eat(']'), true; more; {
		out = append(out, FeedbackEntry{})
		e := &out[len(out)-1]
		if !d.eat('{') || !d.key("item") || !d.item(&e.Item) || !d.eat(',') || !d.key("fraud") {
			return false
		}
		if e.Fraud = d.lit("true"); !(e.Fraud || d.lit("false")) || !d.eat('}') {
			return false
		}
		if more, ok = d.more(']'); !ok {
			return false
		}
	}
	if !d.eat('}') || !d.atEnd() {
		return false
	}
	r.Feedback = out
	return true
}

// decodeItems reads the request body, capped at MaxBodyBytes, into a
// pooled buffer and decodes it into req: the single-pass decoder first,
// encoding/json over the same bytes when that declines. A body over the
// cap is an *http.MaxBytesError whatever it holds.
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
	if !s.stdlibOnly && req.decodeFast(buf.Bytes()) {
		m.fast.Inc()
		return nil
	}
	m.stdlib.Inc()
	return json.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(req)
}

// itemDecoder is the single-pass reader. It scans s, the one string
// made of the body, and every string it hands out is s[i:j]; raw, the
// caller's (pooled) bytes, is only ever lent to time.Time.UnmarshalJSON,
// which keeps none of it.
type itemDecoder struct {
	raw []byte
	s   string
	i   int

	out      []ecom.Item
	comments []ecom.Comment  // backing store shared by every item's Comments
	side     strings.Builder // unescaped text of strings that had escapes
}

func newItemDecoder(body []byte) *itemDecoder {
	// A canonical comment is at least ~140 bytes of keys and punctuation,
	// so len/256 rarely undershoots real traffic and never asks for more
	// than half the body's size in Comment structs.
	return &itemDecoder{raw: body, s: string(body), comments: make([]ecom.Comment, 0, len(body)/256)}
}

// ws skips JSON whitespace.
//
//cats:hotpath
func (d *itemDecoder) ws() {
	for d.i < len(d.s) {
		switch d.s[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// eat consumes c, after optional whitespace.
//
//cats:hotpath
func (d *itemDecoder) eat(c byte) bool {
	d.ws()
	if d.i < len(d.s) && d.s[d.i] == c {
		d.i++
		return true
	}
	return false
}

// atEnd reports whether only whitespace remains.
func (d *itemDecoder) atEnd() bool {
	d.ws()
	return d.i == len(d.s)
}

// key consumes the object key want, byte for byte, and its colon.
func (d *itemDecoder) key(want string) bool {
	k, ok := d.nextKey()
	return ok && k == want
}

// nextKey consumes an object key and its colon and returns the key's
// raw bytes. Every key this decoder knows is plain ASCII, so a key
// written with escapes simply matches none of them.
//
//cats:hotpath
func (d *itemDecoder) nextKey() (string, bool) {
	if !d.eat('"') {
		return "", false
	}
	end := strings.IndexByte(d.s[d.i:], '"')
	if end < 0 {
		return "", false
	}
	k := d.s[d.i : d.i+end]
	d.i += end + 1
	return k, d.eat(':')
}

// more consumes the separator after an object member or array element:
// true after a comma, false with ok after the closing bracket.
//
//cats:hotpath
func (d *itemDecoder) more(closing byte) (more, ok bool) {
	d.ws()
	if d.i >= len(d.s) {
		return false, false
	}
	c := d.s[d.i]
	d.i++
	return c == ',', c == ',' || c == closing
}

// items consumes an array of item objects into d.out.
func (d *itemDecoder) items() bool {
	if !d.eat('[') {
		return false
	}
	d.out = make([]ecom.Item, 0, 16)
	if d.eat(']') {
		return true
	}
	for {
		d.out = append(d.out, ecom.Item{})
		if !d.item(&d.out[len(d.out)-1]) {
			return false
		}
		if more, ok := d.more(']'); !more {
			return ok
		}
	}
}

// item consumes one item object. Unknown, repeated or differently-cased
// keys decline: encoding/json gives each of them a meaning (skip, last
// wins, fold) that is not worth a second implementation.
//
//cats:hotpath
func (d *itemDecoder) item(it *ecom.Item) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return true
	}
	var seen, bit uint
	for {
		k, ok := d.nextKey()
		if !ok {
			return false
		}
		switch k {
		case "item_id":
			bit = 1 << 0
			it.ID, ok = d.str()
		case "shop_id":
			bit = 1 << 1
			it.ShopID, ok = d.str()
		case "item_name":
			bit = 1 << 2
			it.Name, ok = d.str()
		case "category":
			bit = 1 << 3
			it.Category, ok = d.str()
		case "price_cents":
			bit = 1 << 4
			it.PriceCents, ok = d.integer()
		case "sales_volume":
			bit = 1 << 5
			var v int64
			v, ok = d.integer()
			it.SalesVolume = int(v)
			ok = ok && int64(it.SalesVolume) == v
		case "comments":
			bit = 1 << 6
			it.Comments, ok = d.commentList()
		case "label":
			bit = 1 << 7
			var v uint8
			v, ok = d.enum()
			it.Label = ecom.Label(v)
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if more, ok := d.more('}'); !more {
			return ok
		}
	}
}

// commentList consumes an array of comment objects. The comments of a
// whole request share one backing array: each item's slice is cut from
// it with its capacity clipped, so an append by a later reader cannot
// reach a neighbour's comments, and an array outgrown mid-request stays
// valid for the items already cut from it.
//
//cats:hotpath
func (d *itemDecoder) commentList() ([]ecom.Comment, bool) {
	if !d.eat('[') {
		return nil, false
	}
	start := len(d.comments)
	if !d.eat(']') {
		for {
			d.comments = append(d.comments, ecom.Comment{})
			if !d.comment(&d.comments[len(d.comments)-1]) {
				return nil, false
			}
			more, ok := d.more(']')
			if !ok {
				return nil, false
			}
			if !more {
				break
			}
		}
	}
	return d.comments[start:len(d.comments):len(d.comments)], true
}

// comment consumes one comment object.
//
//cats:hotpath
func (d *itemDecoder) comment(c *ecom.Comment) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return true
	}
	var seen, bit uint
	for {
		k, ok := d.nextKey()
		if !ok {
			return false
		}
		switch k {
		case "comment_id":
			bit = 1 << 0
			c.ID, ok = d.str()
		case "item_id":
			bit = 1 << 1
			c.ItemID, ok = d.str()
		case "comment_content":
			bit = 1 << 2
			c.Content, ok = d.str()
		case "user_id":
			bit = 1 << 3
			c.UserID, ok = d.str()
		case "nickname":
			bit = 1 << 4
			c.Nick, ok = d.str()
		case "userExpValue":
			bit = 1 << 5
			c.ExpVal, ok = d.integer()
		case "client_information":
			bit = 1 << 6
			var v uint8
			v, ok = d.enum()
			c.Client = ecom.Client(v)
		case "date":
			bit = 1 << 7
			ok = d.date(c)
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if more, ok := d.more('}'); !more {
			return ok
		}
	}
}

// str consumes a string value. One without escapes is returned as a
// substring of the body; control bytes and invalid UTF-8 decline
// (encoding/json rejects the first and rewrites the second).
//
//cats:hotpath
func (d *itemDecoder) str() (string, bool) {
	if !d.eat('"') {
		return "", false
	}
	start := d.i
	var high byte
	for i := start; i < len(d.s); i++ {
		switch c := d.s[i]; {
		case c == '"':
			d.i = i + 1
			v := d.s[start:i]
			return v, high < utf8.RuneSelf || utf8.ValidString(v)
		case c == '\\':
			return d.unescape(start, i)
		case c < ' ':
			return "", false
		default:
			high |= c
		}
	}
	return "", false
}

// unescape finishes a string value whose first escape is at esc: the
// text goes into the request's side buffer and the value is a substring
// of that. A lone surrogate declines (encoding/json substitutes U+FFFD).
func (d *itemDecoder) unescape(start, esc int) (string, bool) {
	s := d.s
	mark := d.side.Len()
	d.side.WriteString(s[start:esc])
	for i := esc; i < len(s); {
		switch c := s[i]; {
		case c == '"':
			d.i = i + 1
			v := d.side.String()[mark:]
			return v, utf8.ValidString(v)
		case c < ' ':
			return "", false
		case c != '\\':
			d.side.WriteByte(c)
			i++
			continue
		}
		if i+1 >= len(s) {
			return "", false
		}
		i += 2
		switch s[i-1] {
		case '"', '\\', '/':
			d.side.WriteByte(s[i-1])
		case 'b':
			d.side.WriteByte('\b')
		case 'f':
			d.side.WriteByte('\f')
		case 'n':
			d.side.WriteByte('\n')
		case 'r':
			d.side.WriteByte('\r')
		case 't':
			d.side.WriteByte('\t')
		case 'u':
			r, ok := hex4(s, i)
			if !ok {
				return "", false
			}
			i += 4
			if utf16.IsSurrogate(r) {
				if i+6 > len(s) || s[i] != '\\' || s[i+1] != 'u' {
					return "", false
				}
				lo, ok := hex4(s, i+2)
				if r = utf16.DecodeRune(r, lo); !ok || r == utf8.RuneError {
					return "", false
				}
				i += 6
			}
			d.side.WriteRune(r)
		default:
			return "", false
		}
	}
	return "", false
}

// hex4 reads the four hex digits of a \u escape at s[i:].
func hex4(s string, i int) (rune, bool) {
	if i+4 > len(s) {
		return 0, false
	}
	var r rune
	for _, c := range s[i : i+4] { // a non-ASCII rune falls to the default arm
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | c
	}
	return r, true
}

// integer consumes -?digits as an int64. Every other way JSON can write
// a number (fraction, exponent) and every value outside int64 declines,
// as does a leading zero, which is not JSON at all.
//
//cats:hotpath
func (d *itemDecoder) integer() (int64, bool) {
	d.ws()
	s, i := d.s, d.i
	neg := i < len(s) && s[i] == '-'
	if neg {
		i++
	}
	first := i
	var n uint64
	for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
		n = n*10 + uint64(s[i]-'0')
	}
	// 19 digits cannot wrap a uint64; more are out of range anyway.
	if digits := i - first; digits == 0 || digits > 19 || (digits > 1 && s[first] == '0') {
		return 0, false
	}
	if i < len(s) && (s[i] == '.' || s[i] == 'e' || s[i] == 'E') {
		return 0, false
	}
	d.i = i
	if neg {
		return -int64(n), n <= 1<<63
	}
	return int64(n), n < 1<<63
}

// lit consumes the literal want, after optional whitespace.
func (d *itemDecoder) lit(want string) bool {
	d.ws()
	ok := strings.HasPrefix(d.s[d.i:], want)
	if ok {
		d.i += len(want)
	}
	return ok
}

// enum consumes an integer that fits the one-byte enums (ecom.Client,
// ecom.Label). A minus sign declines even on zero, as encoding/json
// rejects "-0" for an unsigned field.
//
//cats:hotpath
func (d *itemDecoder) enum() (uint8, bool) {
	d.ws()
	if d.i < len(d.s) && d.s[d.i] == '-' {
		return 0, false
	}
	v, ok := d.integer()
	return uint8(v), ok && v <= 0xff
}

// date consumes a comment's date: a string token handed, quotes and
// all, to time.Time.UnmarshalJSON — the function encoding/json calls
// with the same bytes. What that accepts (strict RFC 3339) has no
// escapes or control bytes, so an accepted token is also a valid JSON
// string.
//
//cats:hotpath
func (d *itemDecoder) date(c *ecom.Comment) bool {
	d.ws()
	start := d.i
	if !d.eat('"') {
		return false
	}
	end := strings.IndexByte(d.s[d.i:], '"')
	if end < 0 {
		return false
	}
	d.i += end + 1
	return c.Date.UnmarshalJSON(d.raw[start:d.i]) == nil
}
