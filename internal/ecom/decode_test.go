package ecom

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestDecoderKeysAreTheTags: the keys the decoder reads are the json
// tags of Item and Comment — each numbered with its field's index, the
// number Item and comment switch on, and no field's Go name, upper-cased
// tag or padded tag among them — and each has an arm: an item with every
// field set decodes, all three ways, to what encoding/json makes of it.
// A field added to either struct fails here instead of silently sending
// every request and every line to the slower fallback.
func TestDecoderKeysAreTheTags(t *testing.T) {
	for _, c := range []struct {
		typ   reflect.Type
		field func([]byte) int
	}{
		{reflect.TypeOf(Item{}), itemField},
		{reflect.TypeOf(Comment{}), commentField},
	} {
		for i := 0; i < c.typ.NumField(); i++ {
			tag, _, _ := strings.Cut(c.typ.Field(i).Tag.Get("json"), ",")
			if got := c.field([]byte(tag)); got != i {
				t.Errorf("%v.%s: the decoder numbers key %q %d, the field's index is %d", c.typ, c.typ.Field(i).Name, tag, got, i)
			}
			for _, other := range []string{c.typ.Field(i).Name, strings.ToUpper(tag), tag + " ", ""} {
				if got := c.field([]byte(other)); got != -1 {
					t.Errorf("%v: the decoder reads key %q as field %d; it is no json tag", c.typ, other, got)
				}
			}
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
			if v.Field(i).IsZero() {
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
	var rows, projected, aliased Item
	if !d.Line(line, false, &rows) || !reflect.DeepEqual(rows, want) {
		t.Errorf("Line, rows: %+v, want %+v", rows, want)
	}
	wantProjected := want
	wantProjected.Comments = nil
	if !d.Line(line, true, &projected) || !reflect.DeepEqual(projected, wantProjected) {
		t.Errorf("Line, texts: %+v, want %+v", projected, wantProjected)
	}
	if texts := d.Texts(); len(texts) != 1 || texts[0] != want.Comments[0].Content {
		t.Errorf("Texts() = %q, want the one content %q", texts, want.Comments[0].Content)
	}
	d = Alias(line)
	if !d.Item(&aliased) || !d.AtEnd() || !reflect.DeepEqual(aliased, want) {
		t.Errorf("Alias: %+v, want %+v", aliased, want)
	}
}

// TestDecoderKeepsNothingOfItsInput pins the lifetime rule for both
// materializations: once a decode has returned, overwriting the bytes it
// was given — the service's pooled buffer, the scanner's line — changes
// nothing it handed out, escaped strings included.
func TestDecoderKeepsNothingOfItsInput(t *testing.T) {
	const line = `{"item_id":"a\/b","item_name":"plain","sales_volume":9,"comments":[{"comment_id":"c","comment_content":"x\n好"},{"comment_content":"second"}]}`
	var want Item
	if err := json.Unmarshal([]byte(line), &want); err != nil {
		t.Fatal(err)
	}
	decode := map[string]func(d *Decoder, b []byte, it *Item) bool{
		"Alias": func(d *Decoder, b []byte, it *Item) bool { *d = Alias(b); return d.Item(it) && d.AtEnd() },
		"Line":  func(d *Decoder, b []byte, it *Item) bool { return d.Line(b, false, it) },
	}
	for name, f := range decode {
		var d Decoder
		var got Item
		buf := []byte(line)
		if !f(&d, buf, &got) {
			t.Fatalf("%s declined a canonical item", name)
		}
		for i := range buf {
			buf[i] = 'x'
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: item changed with its input's bytes: %+v", name, got)
		}
	}

	var d Decoder
	var got Item
	buf := []byte(line)
	if !d.Line(buf, true, &got) {
		t.Fatal("Line, texts, declined a canonical item")
	}
	texts := d.Texts()
	for i := range buf {
		buf[i] = 'x'
	}
	var next Item
	if !d.Line([]byte(`{"item_id":"other","comments":[{"comment_content":"third"}]}`), true, &next) {
		t.Fatal("Line, texts, declined the next item")
	}
	if got.ID != "a/b" || got.Name != "plain" || got.Comments != nil || !reflect.DeepEqual(texts, []string{"x\n好", "second"}) {
		t.Errorf("projected item changed with its line or the next decode: %+v %q", got, texts)
	}
}
