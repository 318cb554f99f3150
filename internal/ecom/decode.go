package ecom

import (
	"bytes"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// Decoder is the single-pass reader of the canonical encoding; the
// package comment has its contract. It scans the caller's bytes in place,
// from Alias or by Line (for which the zero value is ready), which differ
// in how a validated string is materialized. Not safe for concurrent use.
type Decoder struct {
	raw []byte
	i   int

	alias bool            // strings are cut from s
	s     string          // Alias: the copy of raw
	out   strings.Builder // every string handed out that is not cut from s

	texts bool    // Line: no Comment is built; contents are gathered
	text  []byte  //   here, back to back,
	ends  []int   //   each ending at one of these,
	one   Comment //   and every comment is decoded into this one

	comments []Comment // backing store shared by every item's Comments
}

// Where a string value sits, which decides whether a Line decode keeps it.
const inItem, inComment, inContent = 0, 1, 2

// itemField and commentField number the keys the decoder reads: each is
// the json tag of the field with that index in Item or Comment
// (TestDecoderKeysAreTheTags), -1 any other. The switch copies nothing.
func itemField(k []byte) int {
	switch string(k) {
	case "item_id":
		return 0
	case "shop_id":
		return 1
	case "item_name":
		return 2
	case "category":
		return 3
	case "price_cents":
		return 4
	case "sales_volume":
		return 5
	case "comments":
		return 6
	case "label":
		return 7
	}
	return -1
}

func commentField(k []byte) int {
	switch string(k) {
	case "comment_id":
		return 0
	case "item_id":
		return 1
	case "comment_content":
		return 2
	case "user_id":
		return 3
	case "nickname":
		return 4
	case "userExpValue":
		return 5
	case "client_information":
		return 6
	case "date":
		return 7
	}
	return -1
}

// arenaBlock is the size of the blocks a Line decode copies kept strings
// into: a retained item pins one, a stream allocates one at a time.
const arenaBlock = 1 << 16

// room starts a new block of out unless n more bytes fit the current
// one. A Line decode asks before every write, so out never grows by
// copying; an Alias decode lets it grow, its escaped strings being few.
func (d *Decoder) room(n int) {
	if !d.alias && d.out.Cap()-d.out.Len() < n {
		d.out.Reset()
		d.out.Grow(max(arenaBlock, n))
	}
}

// copyOut returns v as a string of its own, in out.
func (d *Decoder) copyOut(v []byte) string {
	d.room(len(v))
	mark := d.out.Len()
	d.out.Write(v)
	return d.out.String()[mark:]
}

// Alias returns a Decoder at the start of body, every string it hands
// out a substring of one copy of body made here.
func Alias(body []byte) Decoder {
	// A canonical comment is at least ~140 bytes of keys and punctuation,
	// so len/256 rarely undershoots real traffic and never asks for more
	// than half the body's size in Comment structs.
	return Decoder{raw: body, alias: true, s: string(body), comments: make([]Comment, 0, len(body)/256)}
}

// Line decodes line — one item object and nothing else — into it,
// copying what it keeps. With texts set, it gets its item-level fields
// only and Texts returns its comments' contents. On false the line is not
// canonical: it may be half filled; decode into a zero one instead.
func (d *Decoder) Line(line []byte, texts bool, it *Item) bool {
	d.raw, d.i, d.alias, d.texts = line, 0, false, texts
	d.text, d.ends, d.comments = d.text[:0], d.ends[:0], nil
	if !texts {
		d.comments = make([]Comment, 0, len(line)/256) // as Alias sizes it; the item keeps it
	}
	return d.Item(it) && d.AtEnd()
}

// Texts returns, copied out, the contents of the comments of the item
// Line just decoded with texts set; nil if it has none. Not calling it
// leaves the text of an item nobody will read unmaterialized.
func (d *Decoder) Texts() []string {
	if len(d.ends) == 0 {
		return nil
	}
	all, texts, start := d.copyOut(d.text), make([]string, len(d.ends)), 0
	for i, end := range d.ends {
		texts[i], start = all[start:end], end
	}
	return texts
}

// ws skips JSON whitespace.
//
//cats:hotpath
func (d *Decoder) ws() {
	for d.i < len(d.raw) {
		switch d.raw[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// Eat consumes c, after optional whitespace.
//
//cats:hotpath
func (d *Decoder) Eat(c byte) bool {
	d.ws()
	if d.i < len(d.raw) && d.raw[d.i] == c {
		d.i++
		return true
	}
	return false
}

// AtEnd reports whether only whitespace remains.
func (d *Decoder) AtEnd() bool {
	d.ws()
	return d.i == len(d.raw)
}

// Key consumes the object key want, byte for byte, and its colon.
func (d *Decoder) Key(want string) bool {
	k, ok := d.nextKey()
	return ok && string(k) == want
}

// nextKey consumes an object key and its colon and returns the key's
// raw bytes. Every key this decoder knows is plain ASCII, so a key
// written with escapes simply matches none of them.
//
//cats:hotpath
func (d *Decoder) nextKey() ([]byte, bool) {
	if !d.Eat('"') {
		return nil, false
	}
	end := bytes.IndexByte(d.raw[d.i:], '"')
	if end < 0 {
		return nil, false
	}
	k := d.raw[d.i : d.i+end]
	d.i += end + 1
	return k, d.Eat(':')
}

// More consumes the separator after an object member or array element:
// true after a comma, false with ok after the closing bracket.
//
//cats:hotpath
func (d *Decoder) More(closing byte) (more, ok bool) {
	d.ws()
	if d.i >= len(d.raw) {
		return false, false
	}
	c := d.raw[d.i]
	d.i++
	return c == ',', c == ',' || c == closing
}

// Items consumes an array of item objects into *dst.
func (d *Decoder) Items(dst *[]Item) bool {
	if !d.Eat('[') {
		return false
	}
	out := make([]Item, 0, 16)
	for more, ok := !d.Eat(']'), true; more; {
		out = append(out, Item{})
		if !d.Item(&out[len(out)-1]) {
			return false
		}
		if more, ok = d.More(']'); !ok {
			return false
		}
	}
	*dst = out
	return true
}

// Item consumes one item object. Unknown, repeated or differently-cased
// keys decline: encoding/json gives each of them a meaning (skip, last
// wins, fold) that is not worth a second implementation.
//
//cats:hotpath
func (d *Decoder) Item(it *Item) bool {
	if !d.Eat('{') {
		return false
	}
	if d.Eat('}') {
		return true
	}
	var seen uint
	for {
		k, ok := d.nextKey()
		if !ok {
			return false
		}
		f := itemField(k)
		switch f {
		case 0:
			it.ID, ok = d.str(inItem)
		case 1:
			it.ShopID, ok = d.str(inItem)
		case 2:
			it.Name, ok = d.str(inItem)
		case 3:
			it.Category, ok = d.str(inItem)
		case 4:
			it.PriceCents, ok = d.integer()
		case 5:
			var v int64
			v, ok = d.integer()
			it.SalesVolume = int(v)
			ok = ok && int64(it.SalesVolume) == v
		case 6:
			it.Comments, ok = d.commentList()
		case 7:
			var v uint8
			v, ok = d.enum()
			it.Label = Label(v)
		default:
			return false
		}
		bit := uint(1) << f
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if more, ok := d.More('}'); !more {
			return ok
		}
	}
}

// commentList consumes an array of comment objects, or null. The
// comments of a whole request share one backing array: each item's slice
// is cut from it with its capacity clipped, so an append by a later
// reader cannot reach a neighbour's comments, and an array outgrown
// mid-request stays valid for the items already cut from it. With texts
// set every comment is decoded into the same one and the list is nil.
//
//cats:hotpath
func (d *Decoder) commentList() ([]Comment, bool) {
	if !d.Eat('[') {
		return nil, d.Lit("null") // json.Marshal's nil slice, and json.Unmarshal's
	}
	start := len(d.comments)
	for more, ok := !d.Eat(']'), true; more; {
		c := &d.one
		if !d.texts {
			d.comments = append(d.comments, Comment{})
			c = &d.comments[len(d.comments)-1]
		}
		if !d.comment(c) {
			return nil, false
		}
		if d.texts {
			d.ends = append(d.ends, len(d.text))
		}
		if more, ok = d.More(']'); !ok {
			return nil, false
		}
	}
	return d.comments[start:len(d.comments):len(d.comments)], true
}

// comment consumes one comment object.
//
//cats:hotpath
func (d *Decoder) comment(c *Comment) bool {
	if !d.Eat('{') {
		return false
	}
	if d.Eat('}') {
		return true
	}
	var seen uint
	for {
		k, ok := d.nextKey()
		if !ok {
			return false
		}
		f := commentField(k)
		switch f {
		case 0:
			c.ID, ok = d.str(inComment)
		case 1:
			c.ItemID, ok = d.str(inComment)
		case 2:
			c.Content, ok = d.str(inContent)
		case 3:
			c.UserID, ok = d.str(inComment)
		case 4:
			c.Nick, ok = d.str(inComment)
		case 5:
			c.ExpVal, ok = d.integer()
		case 6:
			var v uint8
			v, ok = d.enum()
			c.Client = Client(v)
		case 7:
			ok = d.date(c)
		default:
			return false
		}
		bit := uint(1) << f
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if more, ok := d.More('}'); !more {
			return ok
		}
	}
}

// str consumes a string value and materializes it as the mode and p say.
// Control bytes and invalid UTF-8 decline (encoding/json rejects the
// first and rewrites the second).
//
//cats:hotpath
func (d *Decoder) str(p int) (string, bool) {
	if !d.Eat('"') {
		return "", false
	}
	start := d.i
	var high byte
	for i := start; i < len(d.raw); i++ {
		switch c := d.raw[i]; {
		case c == '"':
			d.i = i + 1
			v := d.raw[start:i]
			if high >= utf8.RuneSelf && !utf8.Valid(v) {
				return "", false
			}
			switch {
			case d.alias:
				return d.s[start:i], true
			case !d.texts || p == inItem:
				return d.copyOut(v), true
			case p == inContent:
				d.text = append(d.text, v...)
			}
			return "", true
		case c == '\\':
			return d.unescape(p, start, i)
		case c < ' ':
			return "", false
		default:
			high |= c
		}
	}
	return "", false
}

// unescape finishes a string value whose first escape is at esc: the
// text goes into out and the value is a substring of that. A lone
// surrogate declines (encoding/json substitutes U+FFFD).
func (d *Decoder) unescape(p, start, esc int) (string, bool) {
	s := d.raw
	d.room(len(s) - start) // unescaped, the value is no longer than it is raw
	mark := d.out.Len()
	d.out.Write(s[start:esc])
	for i := esc; i < len(s); {
		switch c := s[i]; {
		case c == '"':
			d.i = i + 1
			v := d.out.String()[mark:]
			if d.texts && p != inItem { // of these only a content is kept, in text
				if p == inContent {
					d.text = append(d.text, v...)
				}
				return "", utf8.ValidString(v)
			}
			return v, utf8.ValidString(v)
		case c < ' ':
			return "", false
		case c != '\\':
			d.out.WriteByte(c)
			i++
			continue
		}
		if i+1 >= len(s) {
			return "", false
		}
		i += 2
		switch s[i-1] {
		case '"', '\\', '/':
			d.out.WriteByte(s[i-1])
		case 'b':
			d.out.WriteByte('\b')
		case 'f':
			d.out.WriteByte('\f')
		case 'n':
			d.out.WriteByte('\n')
		case 'r':
			d.out.WriteByte('\r')
		case 't':
			d.out.WriteByte('\t')
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
			d.out.WriteRune(r)
		default:
			return "", false
		}
	}
	return "", false
}

// hex4 reads the four hex digits of a \u escape at s[i:].
func hex4(s []byte, i int) (rune, bool) {
	if i+4 > len(s) {
		return 0, false
	}
	var r rune
	for _, b := range s[i : i+4] {
		c := rune(b)
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
func (d *Decoder) integer() (int64, bool) {
	d.ws()
	s, i := d.raw, d.i
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

// Lit consumes the literal want, after optional whitespace.
func (d *Decoder) Lit(want string) bool {
	d.ws()
	ok := string(d.raw[d.i:min(len(d.raw), d.i+len(want))]) == want
	if ok {
		d.i += len(want)
	}
	return ok
}

// enum consumes an integer that fits the one-byte enums (Client, Label).
// A minus sign declines even on zero, as encoding/json rejects "-0" for
// an unsigned field.
//
//cats:hotpath
func (d *Decoder) enum() (uint8, bool) {
	d.ws()
	if d.i < len(d.raw) && d.raw[d.i] == '-' {
		return 0, false
	}
	v, ok := d.integer()
	return uint8(v), ok && v <= 0xff
}

// date consumes a comment's date: a string token handed, quotes and
// all, to time.Time.UnmarshalJSON — the function encoding/json calls
// with the same bytes, and which keeps none of them. What that accepts
// (strict RFC 3339) has no escapes or control bytes, so an accepted
// token is also a valid JSON string.
//
//cats:hotpath
func (d *Decoder) date(c *Comment) bool {
	d.ws()
	start := d.i
	if !d.Eat('"') {
		return false
	}
	end := bytes.IndexByte(d.raw[d.i:], '"')
	if end < 0 {
		return false
	}
	d.i += end + 1
	return c.Date.UnmarshalJSON(d.raw[start:d.i]) == nil
}
