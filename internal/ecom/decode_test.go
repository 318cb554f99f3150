package ecom

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestDecoderKeysAreTheTags: the keys the decoder reads are the json
// tags of Item and Comment — each at its field's index, the number item
// and comment switch on — matched as encoding/json matches them (exactly,
// else folded), and each has an arm: an item with every wire field set
// decodes, all three ways, to what encoding/json makes of it (projected:
// its Texts for its Comments). A field added to either struct fails here
// instead of being silently skipped as an unknown key.
func TestDecoderKeysAreTheTags(t *testing.T) {
	member := func(key string, keys []string) int {
		var d Decoder
		d.reset([]byte(`{"`+key+`":0}`), true)
		d.Object()
		return d.Member(keys)
	}
	for _, c := range []struct {
		typ  reflect.Type
		keys []string
	}{
		{reflect.TypeOf(Item{}), itemKeys},
		{reflect.TypeOf(Comment{}), commentKeys},
	} {
		wire := 0
		for i := 0; i < c.typ.NumField(); i++ {
			tag, _, _ := strings.Cut(c.typ.Field(i).Tag.Get("json"), ",")
			if tag == "-" {
				continue // not on the wire: Item.Texts
			}
			wire++
			for _, k := range []string{tag, strings.ToUpper(tag)} {
				if got := member(k, c.keys); got != i {
					t.Errorf("%v.%s: the decoder numbers key %q %d, the field's index is %d", c.typ, c.typ.Field(i).Name, k, got, i)
				}
			}
			for _, other := range []string{tag + " ", tag[1:]} {
				if got := member(other, c.keys); got != -1 {
					t.Errorf("%v: the decoder reads key %q as field %d; it is no json tag", c.typ, other, got)
				}
			}
		}
		if wire != len(c.keys) {
			t.Errorf("%v has %d wire fields, the decoder %d keys", c.typ, wire, len(c.keys))
		}
	}

	full := Item{
		ID: "i1", ShopID: "s1", Name: "名称 <b>", Category: "food & grocery", PriceCents: 1999, SalesVolume: 7, Label: FraudManual,
		Comments: []Comment{{
			ID: "c1", ItemID: "i1", Content: "很好 \"quoted\"", UserID: "u1", Nick: "n***1", ExpVal: 100,
			Client: ClientWechat, Date: time.Date(2018, 6, 1, 8, 0, 0, 5, time.FixedZone("", 8*3600)),
		}},
	}
	for name, v := range map[string]reflect.Value{"Item": reflect.ValueOf(full), "Comment": reflect.ValueOf(full.Comments[0])} {
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() && v.Type().Field(i).Tag.Get("json") != "-" {
				t.Fatalf("the test's %s leaves %s unset; set it so its arm is exercised", name, v.Type().Field(i).Name)
			}
		}
	}
	line, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	var want Item
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatal(err)
	}

	var d Decoder
	var rows, projected, body Item
	if err := d.Line(line, false, &rows); err != nil || !reflect.DeepEqual(rows, want) {
		t.Errorf("Line, rows: %+v (%v), want %+v", rows, err, want)
	}
	wantProjected := want
	wantProjected.Comments = nil
	if err := d.Line(line, true, &projected); err != nil || !reflect.DeepEqual(projected, wantProjected) {
		t.Errorf("Line, texts: %+v (%v), want %+v", projected, err, wantProjected)
	}
	if texts := d.Texts(); len(texts) != 1 || texts[0] != want.Comments[0].Content {
		t.Errorf("Texts() = %q, want the one content %q", texts, want.Comments[0].Content)
	}
	wantProjected.Texts = want.AppendTexts(nil)
	d.Body(line)
	if d.Item(&body); d.End() != nil || !reflect.DeepEqual(body, wantProjected) {
		t.Errorf("Body: %+v (%v), want %+v", body, d.End(), wantProjected)
	}
}

// TestDecoderKeepsNothingOfItsInput pins the lifetime rule for every
// read: once a decode has returned, overwriting the bytes it was given —
// the service's pooled buffer, the scanner's line — or decoding the next
// input changes nothing it handed out, escaped strings included.
func TestDecoderKeepsNothingOfItsInput(t *testing.T) {
	const line = `{"item_id":"a\/b","item_name":"plain","sales_volume":9,"comments":[{"comment_id":"c","comment_content":"x\n好"},{"comment_content":"second"}]}`
	const next = `{"item_id":"other","comments":[{"comment_content":"thi\rd"}]}`
	var rows Item
	if err := json.Unmarshal([]byte(line), &rows); err != nil {
		t.Fatal(err)
	}
	projected := rows
	projected.Texts, projected.Comments = []string{"x\n好", "second"}, nil
	decode := map[string]struct {
		read func(d *Decoder, b []byte, it *Item) error
		want Item
	}{
		"Line, rows": {func(d *Decoder, b []byte, it *Item) error { return d.Line(b, false, it) }, rows},
		"Line, texts": {func(d *Decoder, b []byte, it *Item) error {
			err := d.Line(b, true, it)
			it.Texts = d.Texts()
			return err
		}, projected},
		"Body": {func(d *Decoder, b []byte, it *Item) error { d.Body(b); d.Item(it); return d.End() }, projected},
	}
	for name, c := range decode {
		var d Decoder
		var got, other Item
		buf := []byte(line)
		if err := c.read(&d, buf, &got); err != nil {
			t.Fatalf("%s refused a canonical item: %v", name, err)
		}
		for i := range buf {
			buf[i] = 'x'
		}
		if err := c.read(&d, []byte(next), &other); err != nil {
			t.Fatalf("%s refused the next item: %v", name, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: item changed with its input's bytes or the next decode: %+v", name, got)
		}
	}
}

// TestBodyArenaIsOneBlock: a Body decode keeps everything in the one
// block it sized to the body — escaped strings, which it decodes aside
// first, included — so a small request never costs a 64 KiB block.
func TestBodyArenaIsOneBlock(t *testing.T) {
	const body = `[{"item_id":"\u597d","item_name":"n\/a","comments":[{"comment_id":"\u0063","comment_content":"\"q\"\\"},{"comment_content":"plain"}]},{"item_id":"b","comments":[{"comment_content":"x\ty"}]}]`
	var d Decoder
	var items []Item
	d.Body([]byte(body + strings.Repeat(" ", 3*128))) // room for canonical comments' Texts
	if List(&d, "items", &items, 16, d.Item); d.End() != nil {
		t.Fatalf("Body refused a canonical array: %v", d.End())
	}
	kept := 0
	for _, it := range items {
		kept += len(it.ID) + len(it.Name)
		for _, s := range it.Texts {
			kept += len(s)
		}
	}
	if d.out.Len() != kept || d.out.Cap() >= arenaBlock {
		t.Errorf("arena holds %d bytes in a block of %d for %d kept", d.out.Len(), d.out.Cap(), kept)
	}
	if len(items) != 2 || items[0].ID != "好" || items[0].Name != "n/a" || items[0].Comments != nil ||
		!reflect.DeepEqual(items[0].Texts, []string{`"q"\`, "plain"}) || !reflect.DeepEqual(items[1].Texts, []string{"x\ty"}) {
		t.Errorf("items = %+v", items)
	}
	first, second := reflect.ValueOf(items[0].Texts).Pointer(), reflect.ValueOf(items[1].Texts).Pointer()
	if second-first != 2*reflect.TypeOf("").Size() || cap(items[0].Texts) != 2 {
		t.Errorf("Texts not cut, capacity clipped, from one backing array: %#x then %#x, cap %d", first, second, cap(items[0].Texts))
	}
}
