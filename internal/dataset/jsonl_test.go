package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ecom"
	"repro/internal/racetest"
	"repro/internal/synth"
)

// The JSONL reader's line decoder (ecom.Decoder.Line) against
// json.Unmarshal, which means the same.

// refusesMerge reports whether err is the one refusal of a line
// encoding/json accepts: a comments list repeated after a non-empty one.
func refusesMerge(err error) bool {
	return strings.Contains(err.Error(), `key "comments" repeated after a non-empty list`)
}

// checkLine is the decoder's contract on one line, for both reads: Line
// accepts it iff json.Unmarshal does — but for a comments list repeated
// after a non-empty one, which it refuses naming the key — and then as
// the same item; the texts read as that item projected.
func checkLine(t *testing.T, line []byte) (accepted bool) {
	t.Helper()
	var d ecom.Decoder
	var rows, projected, want ecom.Item
	err := d.Line(line, false, &rows)
	if perr := d.Line(line, true, &projected); (perr == nil) != (err == nil) {
		t.Fatalf("the rows read (%v) and the texts read (%v) disagree: %q", err, perr, line)
	}
	texts := d.Texts()
	switch werr := json.Unmarshal(line, &want); {
	case err != nil && (werr != nil || refusesMerge(err)):
		if !strings.HasPrefix(err.Error(), "ecom: offset ") {
			t.Fatalf("error %q names no offset", err)
		}
		return false
	case err != nil:
		t.Fatalf("refused a line encoding/json accepts (%v): %q", err, line)
	case werr != nil:
		t.Fatalf("accepted a line encoding/json rejects (%v): %q", werr, line)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("line %q:\n rows   %+v\n stdlib %+v", line, rows, want)
	}
	if len(texts) != len(want.Comments) {
		t.Fatalf("line %q: %d texts for %d comments", line, len(texts), len(want.Comments))
	}
	for i, c := range want.Comments {
		if texts[i] != c.Content {
			t.Fatalf("line %q: text %d is %q, content %q", line, i, texts[i], c.Content)
		}
	}
	want.Comments = nil
	if !reflect.DeepEqual(projected, want) {
		t.Fatalf("line %q:\n texts  %+v\n stdlib %+v", line, projected, want)
	}
	return true
}

// lineAccepts and lineRejects are lines around every place the decoder
// could part from encoding/json: lines it accepts — unusual, folded,
// repeated, null, unknown and deeply nested keys among them — then lines
// it rejects, as encoding/json does.
var lineAccepts = []string{
	`{}`,
	`null`,
	` { "item_id" : "a" , "comments" : [ ] , "sales_volume" : 9 } `,
	`{"item_id":"\u597d\u8bc4","item_name":"\ud83d\ude00 ok","comments":[{"comment_content":"a\/b\n\"q\"\\"}]}`,
	`{"price_cents":-0,"comments":[{"client_information":3,"userExpValue":-0}]}`,
	`{"price_cents":9223372036854775807,"sales_volume":-9223372036854775808}`,
	`{"comments":[{"date":"2018-06-01T08:00:00.123456789+08:00"},{}]}`,
	`{"label":2,"comments":null,"category":""}`,
	`{"comments":[{"comment_content":"\u0000"}],"label":0,"item_id":"keys in another order"}`,
	`{"ITEM_ID":"a"}`,
	`{"Item_ID":"a"}`,
	`{"item\u005fid":"a"}`,
	`{"ſhop_id":"s","ITEM_ID":"a","item_id":"b"}`,
	"{\"comments\":[{\"nic\u212aname\":\"n\",\"COMMENT_CONTENT\":\"c\"}],\"\u017fales_volume\":3}",
	`{"comments":[{"nic\u212aname":"n"}],"\u017fhop_id":"s","item_\u0130d":"i"}`,
	`{"item_id":"a","unknown":1}`,
	`{"item_id":"a","unknown":{"x":[1,-2.5e+3,true,false,null,"s\u0041",{}]},"u2":[]}`,
	`{"item_id":"a","item_id":"b"}`,
	`{"comments":[],"comments":[{"comment_content":"second"}]}`,
	`{"comments":null,"comments":[{"comment_content":"second"}]}`,
	`{"comments":[{"comment_content":"a","comment_content":"b","comment_content":null}]}`,
	`{"comments":[{"date":"2018-06-01T08:00:00Z","date":"2019-06-01T08:00:00Z"}]}`,
	`{"comments":[{"date":null}]}`,
	`{"comments":[null,{"comment_content":"x"},null]}`,
	`{"item_id":null,"shop_id":null,"item_name":null,"category":null,"price_cents":null,"sales_volume":null,"comments":null,"label":null}`,
	`{"comments":[{"comment_id":null,"item_id":null,"comment_content":null,"user_id":null,"nickname":null,"userExpValue":null,"client_information":null,"date":null}]}`,
	`{"item_id":"\ud83d"}`,
	`{"item_id":"\ude00\ud83d"}`,
	`{"item_id":"\ud83d\u0041"}`,
	"{\"item_id\":\"\xff\xfe\"}",
	"{\"comments\":[{\"comment_content\":\"ok \xff\\n \xe5\xa5\"}]}",
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
}

var lineRejects = []string{
	`{"item_id":"a"}{"item_id":"b"}`,
	`{"item_id":"a",}`,
	`{"item_id":"a"`,
	`{"item_id":"tab	inside"}`,
	`{"item_id":"\u00zz"}`,
	`{"comments":[{"date":"2018-06-01"}]}`,
	`{"comments":[{"date":1527840000}]}`,
	`{"comments":{}}`,
	`{"label":-1}`,
	`{"sales_volume":1e2}`,
	``,
	`[]`,
	`{"comments":[{"client_information":1e3}]}`,
	`{"comments":[{"client_information":1.0}]}`,
	`{"comments":[{"client_information":256}]}`,
	`{"comments":[{"client_information":-0}]}`,
	`{"price_cents":12345678901234567890}`,
	`{"price_cents":9223372036854775808}`,
	`{"sales_volume":007}`,
	`{"item_id":"a"} trailing`,
	`{"item_id":"a","unknown":[1,]}`,
	`{"item_id":"a","unknown":01}`,
	`{"item_id":"a","unknown":"\x"}`,
	`{"item_id":"a","unknown":tru}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
}

// canonicalLines are the lines the JSONL writer produces for generated
// items, one without comments among them.
func canonicalLines(t testing.TB) [][]byte {
	t.Helper()
	items := append(sample().Items, ecom.Item{ID: "bare", SalesVolume: 3})
	return bytes.Split(bytes.TrimSpace(encode(t, items, FormatJSONL)), []byte("\n"))
}

// TestJSONLLineAgreesWithStdlib states the contract on a fixed corpus:
// the differential holds on every line, every line json.Marshal writes
// is accepted, each line of lineAccepts is accepted and each of
// lineRejects rejected — and the one line encoding/json accepts that the
// decoder refuses is refused with an error naming the key.
func TestJSONLLineAgreesWithStdlib(t *testing.T) {
	for _, line := range canonicalLines(t) {
		if !checkLine(t, line) {
			t.Errorf("refused a canonical line: %.80q", line)
		}
	}
	for _, line := range lineAccepts {
		if !checkLine(t, []byte(line)) {
			t.Errorf("refused %.80q, which encoding/json accepts", line)
		}
	}
	for _, line := range lineRejects {
		if checkLine(t, []byte(line)) {
			t.Errorf("accepted %.80q, which encoding/json rejects", line)
		}
	}
	const merge = `{"comments":[{"comment_id":"x","comment_content":"A"}],"comments":[{"comment_id":"y"}]}`
	var d ecom.Decoder
	const want = `ecom: offset 66: key "comments" repeated after a non-empty list, which this decoder does not merge into`
	if err := d.Line([]byte(merge), false, new(ecom.Item)); err == nil || err.Error() != want || checkLine(t, []byte(merge)) {
		t.Errorf("the repeated non-empty list: %v, want %q", err, want)
	}
}

// TestJSONLUnusualLinesReadAsStdlib: a line with an unknown, an upper-case
// or a repeated key, or a null list, means what encoding/json says it
// means.
func TestJSONLUnusualLinesReadAsStdlib(t *testing.T) {
	data := `{"item_id":"a","comments":[{"comment_content":"x"}]}` + "\n\n" +
		`{"item_id":"b","note":1,"comments":[{"comment_content":"y"},{"COMMENT_CONTENT":"z"}]}` + "\n" +
		`{"item_id":"c","item_id":"d","comments":null}` + "\n"
	r := NewReader(strings.NewReader(data))
	var ids []string
	var contents [][]string
	for {
		item, err := r.NextTexts(nil)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ids, contents = append(ids, item.ID), append(contents, item.Texts)
	}
	if want := [][]string{{"x"}, {"y", "z"}, nil}; !reflect.DeepEqual(ids, []string{"a", "b", "d"}) || !reflect.DeepEqual(contents, want) {
		t.Errorf("read ids %q texts %q", ids, contents)
	}
}

// TestJSONLLineOverTheCapNamesItsLine: a line longer than the scanner's
// 16 MiB cap fails like every other bad line, with the package prefix
// and the line's number.
func TestJSONLLineOverTheCapNamesItsLine(t *testing.T) {
	data := `{"item_id":"a"}` + "\n" + `{"item_id":"b","item_name":"` + strings.Repeat("x", 17<<20) + `"}` + "\n"
	for name, read := range map[string]func(*Reader) error{
		"Next":      func(r *Reader) error { _, err := r.Next(); return err },
		"NextTexts": func(r *Reader) error { _, err := r.NextTexts(nil); return err },
	} {
		r := NewReader(strings.NewReader(data))
		if err := read(r); err != nil {
			t.Fatalf("%s, line 1: %v", name, err)
		}
		const want = "dataset: line 2: bufio.Scanner: token too long"
		if err := read(r); err == nil || err.Error() != want {
			t.Errorf("%s, line 2: %v, want %q", name, err, want)
		}
	}
}

// budgetCorpus is a few hundred generated items as canonical JSONL.
func budgetCorpus(t testing.TB) (data []byte, items []ecom.Item) {
	t.Helper()
	u := synth.Generate(synth.Config{Name: "budget", Seed: 3, FraudEvidence: 60, Normal: 240, Shops: 6})
	return encode(t, u.Dataset.Items, FormatJSONL), u.Dataset.Items
}

// TestJSONLProjectedReadBudget: on canonical JSONL a projected read
// allocates per item what it hands out — the item, its texts' headers,
// its share of an arena block — and nothing that grows with the line:
// at most 4 allocations per item and twice the kept bytes (encoding/json
// took 69 allocations here).
func TestJSONLProjectedReadBudget(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	data, items := budgetCorpus(t)
	kept, contents := 0, 0
	for i := range items {
		kept += len(items[i].ID) + len(items[i].ShopID) + len(items[i].Name) + len(items[i].Category)
		for _, c := range items[i].Comments {
			contents += len(c.Content)
		}
	}
	kept += contents
	measure := func(data []byte, keep func(*ecom.Item) bool) (mallocs, allocated float64) {
		var before, after runtime.MemStats
		r := NewReader(bytes.NewReader(data))
		runtime.ReadMemStats(&before)
		for {
			if _, err := r.NextTexts(keep); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
	}
	fixedMallocs, fixedBytes := measure(nil, nil) // the reader's buffers
	mallocs, total := measure(data, nil)
	n := float64(len(items))
	if perItem := (mallocs - fixedMallocs) / n; perItem > 4 {
		t.Errorf("%.1f allocations per item, want <= 4", perItem)
	}
	if perItem, limit := (total-fixedBytes)/n, 2*float64(kept)/n; perItem > limit {
		t.Errorf("%.0f bytes allocated per item, want <= %.0f, twice the %d kept", perItem, limit, kept/len(items))
	}
	// Refused, an item's texts are never copied out of its line: the run
	// allocates less by about their size (a partly used 64 KiB arena
	// block on either side is the slack).
	_, refused := measure(data, func(*ecom.Item) bool { return false })
	if saved := total - refused; saved < 0.75*float64(contents) {
		t.Errorf("refusing every item's text saved %.0f of %.0f bytes allocated, want most of the contents' %d", saved, total, contents)
	}
}

// BenchmarkJSONLRead is the JSONL read layer on canonical input, by
// both reads: ns/comment and allocs/item, the numbers bench's
// dataset.jsonl_* probes take of the rows read.
func BenchmarkJSONLRead(b *testing.B) {
	data, items := budgetCorpus(b)
	comments := 0
	for i := range items {
		comments += len(items[i].Comments)
	}
	for _, c := range []struct {
		name string
		read func(*Reader) error
	}{
		{"rows", func(r *Reader) error { _, err := r.Next(); return err }},
		{"texts", func(r *Reader) error { _, err := r.NextTexts(nil); return err }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				r := NewReader(bytes.NewReader(data))
				for {
					if err := c.read(r); errors.Is(err, io.EOF) {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*comments), "ns/comment")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*len(items)), "allocs/item")
		})
	}
}
