package dataset

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// FuzzReader checks that arbitrary byte streams never panic the
// sniffing reader (JSONL or columnar): every input either decodes to
// items or yields an error, and iteration always terminates.
func FuzzReader(f *testing.F) {
	f.Add(`{"item_id":"a"}`)
	f.Add("")
	f.Add("\n\n\n")
	f.Add(`{"item_id":"a","comments":[{"comment_id":"c"}]}` + "\n{bad")
	f.Add(`null`)
	f.Add(`[1,2,3]`)
	f.Add("CATC")                          // columnar magic, truncated header
	f.Add("CATC\x01\x02")                  // valid dataset header, no blocks
	f.Add("CATC\x01\x01")                  // snapshot kind where a dataset is expected
	f.Add("CATC\x63\x02\x05arena\x00\x00") // future format version
	f.Add("CATC\x01\x02\x05arena\xff\xff") // hostile payload length
	f.Fuzz(func(t *testing.T, s string) {
		r := NewReader(strings.NewReader(s))
		for i := 0; i < 10000; i++ {
			_, err := r.Next()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				return // decode errors are fine; panics are not
			}
		}
		t.Fatal("reader did not terminate")
	})
}

// FuzzJSONLLineDifferential holds the JSONL reader's line decoder to
// json.Unmarshal (checkLine): for arbitrary bytes, it accepts a line iff
// encoding/json does — the repeated non-empty comments list aside — and
// then as the same item, by the rows read and by the texts read alike.
func FuzzJSONLLineDifferential(f *testing.F) {
	for _, line := range canonicalLines(f)[:4] {
		f.Add(line)
	}
	for _, s := range append(lineAccepts, lineRejects...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) { checkLine(t, line) })
}
