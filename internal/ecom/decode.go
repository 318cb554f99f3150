package ecom

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// Decoder is the single-pass reader of items in JSON; the package comment
// has its contract. It scans the caller's bytes in place, a line (Line, for
// which the zero value is ready) or a request body (Body) at a time. Not
// safe for concurrent use.
type Decoder struct {
	raw   []byte
	i     int
	err   error           // the first rejection; fail also moves i to the end
	depth int             // objects and arrays open at i
	first bool            // the object or array opened last has no member yet
	hint  int             // the index of the key after the last one Member found
	out   strings.Builder // the arena every string handed out is cut from

	texts   bool     // projected: no Comment is built; contents are gathered
	text    []byte   //   here, back to back (an escaped value is decoded here too),
	ends    []int    //   each ending at one of these,
	content int      //   the one being read starting here,
	one     Comment  //   and every comment is decoded into this one
	cut     []string // backing store shared by the Texts of consecutive items
}

// maxDepth is encoding/json's nesting limit: objects and arrays open at once.
const maxDepth = 10000

// Where a string value sits, which decides whether a projected read keeps it.
const inItem, inComment, inContent = 0, 1, 2

// itemKeys and commentKeys are the keys an item and a comment are read
// by: each the json tag of the field with that index in Item or Comment
// (TestDecoderKeysAreTheTags).
var (
	itemKeys    = []string{"item_id", "shop_id", "item_name", "category", "price_cents", "sales_volume", "comments", "label"}
	commentKeys = []string{"comment_id", "item_id", "comment_content", "user_id", "nickname", "userExpValue", "client_information", "date"}
)

// arenaBlock is the size of the blocks a Line decode copies kept strings
// into: a retained item pins one, a stream allocates one at a time.
const arenaBlock = 1 << 16

// copyOut returns v as a string of its own, cut from the arena. A decode
// starts a new block when v does not fit the current one, so the arena
// never grows by copying; a Body's one block has room for everything but
// U+FFFD written for invalid UTF-8.
func (d *Decoder) copyOut(v []byte) string {
	if d.out.Cap()-d.out.Len() < len(v) {
		d.out.Reset()
		d.out.Grow(max(arenaBlock, len(v)))
	}
	mark := d.out.Len()
	d.out.Write(v)
	return d.out.String()[mark:]
}

// reset readies d to read in, with no error and nothing open.
func (d *Decoder) reset(in []byte, texts bool) {
	d.raw, d.i, d.err, d.depth, d.first, d.texts = in, 0, nil, 0, false, texts
}

// Body readies d to read body, a request of one or more items, projected
// (Item sets each item's Texts), into one arena of len(body) bytes — no
// kept string is longer than its encoding but for U+FFFD written for
// invalid UTF-8, none is copied twice — with the Texts cut from one
// backing array. End then reports how the read went. Body(nil) lets go
// of the last body.
func (d *Decoder) Body(body []byte) {
	d.reset(body, true)
	d.out.Reset()
	d.out.Grow(len(body))
	// A canonical comment is at least ~140 bytes of keys and punctuation.
	d.cut = make([]string, 0, len(body)/128)
}

// Line decodes line — one item and nothing else — into it, copying what
// it keeps. With texts set, it gets its item-level fields only and Texts
// returns its comments' contents. On an error it may be half filled.
func (d *Decoder) Line(line []byte, texts bool, it *Item) error {
	d.reset(line, texts)
	d.item(it)
	return d.End()
}

// End reports how the read ended: nil when one whole value was read with
// nothing but whitespace after it, else the first rejection.
func (d *Decoder) End() error {
	if d.ws(); d.i < len(d.raw) {
		d.fail(fmt.Sprintf("invalid character %q after the value", d.raw[d.i]))
	}
	return d.err
}

// Texts returns, copied into the arena, the contents of the comments of
// the item just decoded projected; nil if it has none. A Line caller that
// does not call it leaves the text of an item nobody will read uncopied.
func (d *Decoder) Texts() []string {
	if len(d.ends) == 0 {
		return nil
	}
	if cap(d.cut)-len(d.cut) < len(d.ends) {
		d.cut = make([]string, 0, len(d.ends))
	}
	all, start, first := d.copyOut(d.text), 0, len(d.cut)
	for _, end := range d.ends {
		d.cut, start = append(d.cut, all[start:end]), end
	}
	return d.cut[first:len(d.cut):len(d.cut)]
}

// fail records the first rejection, at the offset reached, and moves to
// the end of the input, where every read that follows fails too.
func (d *Decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("ecom: offset %d: %s", d.i, msg)
	}
	d.i = len(d.raw)
}

// unexpected fails on the byte at the offset reached, which is not want.
func (d *Decoder) unexpected(want string) {
	if d.i >= len(d.raw) {
		d.fail("unexpected end of input, want " + want)
	} else {
		d.fail(fmt.Sprintf("invalid character %q, want %s", d.raw[d.i], want))
	}
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

// eat consumes c, after optional whitespace.
//
//cats:hotpath
func (d *Decoder) eat(c byte) bool {
	d.ws()
	return d.optional(c)
}

// lit consumes the literal want, after optional whitespace.
func (d *Decoder) lit(want string) bool {
	d.ws()
	ok := string(d.raw[d.i:min(len(d.raw), d.i+len(want))]) == want
	if ok {
		d.i += len(want)
	}
	return ok
}

// nullOr consumes a null — which leaves whatever the value would have
// set as it is, as in encoding/json — or fails: want is what else fits.
func (d *Decoder) nullOr(want string) {
	if !d.lit("null") {
		d.unexpected(want)
	}
}

// Object begins reading an object, for Member to walk: true at its '{';
// false on null and on a failure.
func (d *Decoder) Object() bool { return d.open('{', "an object") }

// Array begins reading an array, for Elem to walk, as Object does.
func (d *Decoder) Array() bool { return d.open('[', "an array") }

//cats:hotpath
func (d *Decoder) open(c byte, what string) bool {
	if !d.eat(c) {
		d.nullOr(what)
		return false
	}
	if d.depth++; d.depth > maxDepth {
		d.i--
		d.fail("exceeded max depth")
		return false
	}
	d.first = true
	return true
}

// next consumes what separates the open object's or array's elements:
// nothing before the first, a comma before any other. False at its
// closing bracket, which it consumes, and on a failure.
//
//cats:hotpath
func (d *Decoder) next(closing byte) bool {
	switch d.ws(); {
	case d.optional(closing):
		d.depth--
	case d.first || d.optional(','):
		d.first = false
		return true
	default:
		d.unexpected("',' or the closing bracket")
	}
	d.first = false
	return false
}

// Elem moves to the next element of the array Array began: false at its
// end and on a failure.
func (d *Decoder) Elem() bool { return d.next(']') }

// Member moves to the next member of the object Object began, reads its
// key and colon, and returns the key's index in keys: the key it is, or
// else folds to (folded). A key in neither has its value skipped,
// validated as it goes. -1 at the object's end and on a failure.
//
//cats:hotpath
func (d *Decoder) Member(keys []string) int {
	for {
		if d.i < len(d.raw) && d.raw[d.i] == ',' && !d.first {
			d.i++ // next's common case, inline
		} else if !d.next('}') {
			return -1
		}
		if !d.eat('"') {
			d.unexpected("a key")
			return -1
		}
		// A key written as one of keys, plain ASCII, is found in place,
		// first where the one after the last found would be: json.Marshal
		// writes them in order.
		f := d.hint
		if f >= len(keys) || !d.at(keys[f]) {
			for f = 0; f < len(keys) && !d.at(keys[f]); f++ {
			}
		}
		if f < len(keys) {
			d.i += len(keys[f]) + 1
		} else {
			f = d.folded(keys)
		}
		if !d.eat(':') {
			d.unexpected("':'")
			return -1
		}
		if f < len(keys) {
			d.hint = f + 1
			return f
		}
		d.skip()
	}
}

// folded reads a key not written as one of keys and returns its index
// in them as encoding/json matches it (bytes.EqualFold is its foldName
// on ASCII keys), len(keys) for none.
func (d *Decoder) folded(keys []string) (f int) {
	for k := d.scan(); f < len(keys) && !bytes.EqualFold(k, []byte(keys[f])); f++ {
	}
	return f
}

// at reports whether the key at the offset reached is key, as it is.
func (d *Decoder) at(key string) bool {
	end := d.i + len(key)
	return end < len(d.raw) && d.raw[end] == '"' && string(d.raw[d.i:end]) == key
}

// skip consumes a value nothing reads, validating it as encoding/json
// does; its objects and arrays count toward maxDepth.
func (d *Decoder) skip() {
	d.ws()
	if d.i == len(d.raw) {
		d.unexpected("a value")
		return
	}
	switch d.raw[d.i] {
	case '{':
		if d.Object() {
			d.Member(nil)
		}
	case '[':
		if d.Array() {
			for d.Elem() {
				d.skip()
			}
		}
	case '"':
		d.i++
		d.scan()
	case 't', 'f', 'n':
		if !d.lit("true") && !d.lit("false") && !d.lit("null") {
			d.unexpected("a value")
		}
	default:
		d.number()
	}
}

// number consumes a number, in the form JSON allows.
func (d *Decoder) number() {
	d.optional('-')
	if !d.optional('0') && d.digits() == 0 {
		d.unexpected("a value")
		return
	}
	if d.optional('.') && d.digits() == 0 {
		d.unexpected("a digit")
		return
	}
	if d.optional('e') || d.optional('E') {
		if !d.optional('+') {
			d.optional('-')
		}
		if d.digits() == 0 {
			d.unexpected("a digit")
		}
	}
}

// optional consumes c if it comes next.
func (d *Decoder) optional(c byte) bool {
	ok := d.i < len(d.raw) && d.raw[d.i] == c
	if ok {
		d.i++
	}
	return ok
}

// digits consumes a run of decimal digits and returns its length.
func (d *Decoder) digits() int {
	start := d.i
	for d.i < len(d.raw) && '0' <= d.raw[d.i] && d.raw[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// Item reads an item, projected (its comments' contents as its Texts),
// into it. A second object read into the same item — a repeated key —
// fills it further, as encoding/json does; null leaves it as it is.
func (d *Decoder) Item(it *Item) {
	d.item(it)
	if len(d.ends) > 0 {
		it.Texts = d.Texts()
	}
}

// List reads a list into *dst, each element by elem into a zero T; null
// sets it to nil. n is the capacity to start with. A list key repeated
// after a non-empty list is refused, naming key: encoding/json would
// merge the second list into the first, element by element.
func List[T any](d *Decoder, key string, dst *[]T, n int, elem func(*T)) {
	if len(*dst) > 0 {
		d.repeated(key)
		return
	}
	*dst = nil
	if !d.Array() {
		return
	}
	out := make([]T, 0, n)
	for d.Elem() {
		out = append(out, *new(T))
		elem(&out[len(out)-1])
	}
	*dst = out
}

func (d *Decoder) repeated(key string) {
	d.fail(fmt.Sprintf("key %q repeated after a non-empty list, which this decoder does not merge into", key))
}

// Bool reads true or false into *dst; null leaves it.
func (d *Decoder) Bool(dst *bool) {
	if t := d.lit("true"); t || d.lit("false") {
		*dst = t
	} else {
		d.nullOr("true or false")
	}
}

// item reads one item, leaving a projected read's contents in text.
//
//cats:hotpath
func (d *Decoder) item(it *Item) {
	d.text, d.ends = d.text[:0], d.ends[:0]
	if !d.Object() {
		return
	}
	for f := d.Member(itemKeys); f >= 0; f = d.Member(itemKeys) {
		switch f {
		case 0:
			d.str(inItem, &it.ID)
		case 1:
			d.str(inItem, &it.ShopID)
		case 2:
			d.str(inItem, &it.Name)
		case 3:
			d.str(inItem, &it.Category)
		case 4:
			d.integer(&it.PriceCents)
		case 5:
			v := int64(it.SalesVolume)
			d.integer(&v)
			if it.SalesVolume = int(v); int64(it.SalesVolume) != v {
				d.fail("integer out of range for an int")
			}
		case 6:
			d.commentList(it)
		case 7:
			d.enum((*uint8)(&it.Label))
		}
	}
}

// commentList reads an item's comments: a row read into a list sized
// for the line, a projected one into the same one Comment each, noting in
// ends where its content ends in text.
//
//cats:hotpath
func (d *Decoder) commentList(it *Item) {
	if !d.texts {
		List(d, "comments", &it.Comments, len(d.raw)/256, d.comment)
		return
	}
	if len(it.Texts) > 0 || len(d.ends) > 0 {
		d.repeated("comments")
		return
	}
	if d.Array() {
		for d.Elem() {
			d.content = len(d.text)
			d.comment(&d.one)
			d.ends = append(d.ends, len(d.text))
		}
	}
}

// comment reads one comment.
//
//cats:hotpath
func (d *Decoder) comment(c *Comment) {
	if !d.Object() {
		return
	}
	for f := d.Member(commentKeys); f >= 0; f = d.Member(commentKeys) {
		switch f {
		case 0:
			d.str(inComment, &c.ID)
		case 1:
			d.str(inComment, &c.ItemID)
		case 2:
			d.str(inContent, &c.Content)
		case 3:
			d.str(inComment, &c.UserID)
		case 4:
			d.str(inComment, &c.Nick)
		case 5:
			d.integer(&c.ExpVal)
		case 6:
			d.enum((*uint8)(&c.Client))
		case 7:
			d.date(c)
		}
	}
}

// str reads a string value, or null, into *dst, keeping it as p says.
//
//cats:hotpath
func (d *Decoder) str(p int, dst *string) {
	if !d.eat('"') {
		d.nullOr("a string")
		return
	}
	*dst = d.keep(p, d.scan())
}

// scan reads the rest of a string whose opening quote is consumed and
// returns its contents: in place when they are plain — no escape, no
// control byte, valid UTF-8 — else decoded past the end of text
// (unquote), where the next append to text overwrites them.
//
//cats:hotpath
func (d *Decoder) scan() []byte {
	start := d.i
	var high byte
	for i := start; i < len(d.raw); i++ {
		switch c := d.raw[i]; {
		case c == '"':
			if v := d.raw[start:i]; high < utf8.RuneSelf || utf8.Valid(v) {
				d.i = i + 1
				return v
			}
			return d.unquote(start)
		case c < ' ' || c == '\\':
			return d.unquote(start)
		default:
			high |= c
		}
	}
	return d.unquote(start)
}

// unquote decodes the contents of a string that start at start past the
// end of text, the way encoding/json unquotes one: escapes decoded, and a
// lone surrogate and each byte of invalid UTF-8 written as U+FFFD. It
// returns them from there.
func (d *Decoder) unquote(start int) []byte {
	s, i, mark := d.raw, start, len(d.text)
	for {
		j := i
		for j < len(s) && s[j] >= ' ' && s[j] != '"' && s[j] != '\\' {
			j++
		}
		d.text = appendUTF8(d.text, s[i:j])
		if d.i = j; j == len(s) || s[j] != '\\' {
			break
		}
		if i = j + 2; i > len(s) {
			break
		}
		if c := escapes[s[j+1]]; c != 0 {
			d.text = append(d.text, c)
			continue
		}
		r, ok := hex4(s, i)
		if d.i = j + 1; s[j+1] != 'u' || !ok {
			d.unexpected("an escape")
			return nil
		}
		if i += 4; utf16.IsSurrogate(r) {
			// A pair, or U+FFFD and whatever follows read on its own.
			lo, ok := hex4(s, i+2)
			if r = utf16.DecodeRune(r, lo); ok && r != utf8.RuneError && s[i] == '\\' && s[i+1] == 'u' {
				i += 6
			} else {
				r = utf8.RuneError
			}
		}
		d.text = utf8.AppendRune(d.text, r)
	}
	if v := d.text[mark:]; d.optional('"') {
		d.text = d.text[:mark]
		return v
	}
	d.unexpected("the end of a string")
	return nil
}

// appendUTF8 appends b, each byte of it that is not valid UTF-8 as U+FFFD.
func appendUTF8(dst, b []byte) []byte {
	for len(b) > 0 {
		r, n := utf8.DecodeRune(b)
		dst, b = utf8.AppendRune(dst, r), b[n:]
	}
	return dst
}

// escapes maps the byte after a backslash to what the escape stands for,
// but for \u.
var escapes = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 reads the four hex digits of a \u escape at s[i:].
func hex4(s []byte, i int) (rune, bool) {
	if i+4 > len(s) {
		return 0, false
	}
	r, err := strconv.ParseUint(string(s[i:i+4]), 16, 16)
	return rune(r), err == nil
}

// keep materializes a string value v found at p: copied into the arena,
// or on a projected read, which hands out an item's own strings alone, a
// content written to text (over the comment's last one) and anything
// else dropped.
//
//cats:hotpath
func (d *Decoder) keep(p int, v []byte) string {
	switch {
	case !d.texts || p == inItem:
		return d.copyOut(v)
	case p == inContent:
		d.text = append(d.text[:d.content], v...)
	}
	return ""
}

// integer reads an integer value, or null, into *dst. Every other way
// JSON can write a number (fraction, exponent) and every value outside
// int64 is refused, as encoding/json refuses it for an integer field.
//
//cats:hotpath
func (d *Decoder) integer(dst *int64) {
	d.ws()
	start := d.i
	neg := d.optional('-')
	first, n := d.i, uint64(0)
	for ; d.i < len(d.raw) && '0' <= d.raw[d.i] && d.raw[d.i] <= '9'; d.i++ {
		n = n*10 + uint64(d.raw[d.i]-'0')
	}
	switch digits := d.i - first; {
	case digits == 0 && !neg:
		d.nullOr("an integer")
	case digits == 0, digits > 1 && d.raw[first] == '0', d.i < len(d.raw) && (d.raw[d.i] == '.' || d.raw[d.i]|0x20 == 'e'):
		d.unexpected("an integer")
	// 19 digits cannot wrap a uint64; more are out of range anyway.
	case digits > 19 || n > 1<<63 || (n == 1<<63 && !neg):
		d.i = start
		d.fail("integer out of range for int64")
	case neg:
		*dst = -int64(n)
	default:
		*dst = int64(n)
	}
}

// enum reads an integer, or null, into a one-byte field (Client, Label).
// A minus sign is refused even on zero, as encoding/json refuses "-0" for
// an unsigned field.
//
//cats:hotpath
func (d *Decoder) enum(dst *uint8) {
	if d.ws(); d.i < len(d.raw) && d.raw[d.i] == '-' {
		d.unexpected("an unsigned integer")
		return
	}
	start, v := d.i, int64(*dst)
	if d.integer(&v); v > 0xff {
		d.i = start
		d.fail("integer out of range for uint8")
		return
	}
	*dst = uint8(v)
}

// date reads a comment's date, or null: a string token handed, quotes
// and all, to time.Time.UnmarshalJSON, as encoding/json hands it. What
// that accepts (strict RFC 3339) holds no escape, so it ends at its
// first quote.
//
//cats:hotpath
func (d *Decoder) date(c *Comment) {
	d.ws()
	start := d.i
	if !d.eat('"') {
		d.nullOr("a date string")
		return
	}
	end := bytes.IndexByte(d.raw[d.i:], '"')
	if end < 0 || c.Date.UnmarshalJSON(d.raw[start:d.i+end+1]) != nil {
		d.i = start
		d.fail("not an RFC 3339 date string")
		return
	}
	d.i += end + 1
}
