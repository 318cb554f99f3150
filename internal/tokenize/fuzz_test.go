package tokenize

import (
	"testing"
	"unicode/utf8"
)

// fuzzSegmenter builds the dictionary shared by the fuzz targets. It
// deliberately mixes overlapping entries (我/喜欢 vs 我喜欢) and an
// entry containing punctuation-adjacent runes so maximum matching has
// real choices to make.
func fuzzSegmenter() *Segmenter { return NewSegmenter(fuzzVocab) }

var fuzzVocab = []string{
	"我", "喜欢", "我喜欢", "好评", "质量", "不错", "很好", "很", "好",
	"质量不错", "五星好评", "物流", "很快",
}

// fuzzRef is the map-based reference segmenter over the same dictionary.
var fuzzRef = newReference(fuzzVocab)

// FuzzSegmentRoundTrip checks the segmenter's lossless property on
// arbitrary input: rejoining all tokens (with whitespace kept) must
// reproduce the input, and no call may panic. With zero-copy substring
// tokens this holds even for invalid UTF-8 — every token is a slice of
// the input, so nothing is ever re-encoded.
func FuzzSegmentRoundTrip(f *testing.F) {
	seg := fuzzSegmenter()
	f.Add("我很喜欢这件商品")
	f.Add("质量不错，物流很快！ok 5星")
	f.Add("")
	f.Add("   ")
	f.Add("！！！～～～")
	f.Add("abc123好评xyz")
	f.Add("\xff\xfe质量")
	f.Fuzz(func(t *testing.T, s string) {
		toks := seg.SegmentAll(s)
		var joined string
		for _, tok := range toks {
			if tok.Text == "" {
				t.Fatalf("empty token in segmentation of %q", s)
			}
			joined += tok.Text
		}
		if joined != s {
			t.Fatalf("round trip failed: %q → %q", s, joined)
		}
		// Tokens must carry correct byte offsets and rune counts.
		for _, tok := range toks {
			if tok.Start < 0 || tok.End > len(s) || s[tok.Start:tok.End] != tok.Text {
				t.Fatalf("token %+v: offsets do not slice %q", tok, s)
			}
			if got := utf8.RuneCountInString(tok.Text); got != tok.Runes {
				t.Fatalf("token %q: Runes = %d, want %d", tok.Text, tok.Runes, got)
			}
		}
		// The ID-carrying pass must agree with the token stream.
		checkWordTokens(t, seg, s)
		// Words must never contain punctuation runes.
		for _, w := range seg.Words(s) {
			for _, r := range w {
				if IsPunct(r) {
					t.Fatalf("word %q contains punctuation", w)
				}
			}
		}
	})
}

// FuzzSegmentDifferential pins the byte-level trie walk against the
// retained map-based reference implementation: on any valid UTF-8
// input, both must produce the identical Text/Kind token stream, with
// and without whitespace tokens, and each word token must carry
// WordID's answer for its text. It runs over two dictionaries: the
// small overlapping one and hashVocab, whose edge table is crowded
// enough for probes to collide and wrap. (Invalid UTF-8 is skipped: the
// reference's []rune conversion re-encodes invalid bytes as U+FFFD,
// while the zero-copy path preserves the original bytes — an
// intentional improvement, not a divergence to pin.)
func FuzzSegmentDifferential(f *testing.F) {
	segs := []*Segmenter{fuzzSegmenter(), NewSegmenter(hashVocab())}
	refs := []*reference{fuzzRef, newReference(hashVocab())}
	f.Add("我很喜欢这件商品")
	f.Add("我喜欢质量不错的好评")
	f.Add("质量不错，物流很快！ok 5星")
	f.Add("五星好评五星好 评五星")
	f.Add("３．１４ １２３ ①②③")
	f.Add("latin好run12好评3.14end")
	f.Add(hashPrefix + "好" + hashPrefix[:3*11] + "好 " + hashPrefix[:3*15])
	f.Add(string(hashHan()[:9]) + "，" + string(hashHan()[190:]))
	f.Add("\x00\x00好\x00 😀😁😀好评 \U0010FFFF\U0010FFFF一 okay123")
	f.Fuzz(func(t *testing.T, s string) {
		if !utf8.ValidString(s) {
			t.Skip()
		}
		for k, seg := range segs {
			for _, keepSpace := range []bool{false, true} {
				got := seg.appendTokens(nil, s, keepSpace)
				want := refs[k].referenceSegment(s, keepSpace)
				if len(got) != len(want) {
					t.Fatalf("dictionary %d keepSpace=%v: %d tokens, reference has %d\n got: %v\nwant: %v",
						k, keepSpace, len(got), len(want), got, want)
				}
				for i := range got {
					if got[i].Text != want[i].Text || got[i].Kind != want[i].Kind {
						t.Fatalf("dictionary %d keepSpace=%v: token %d = {%q %d}, reference {%q %d} in %q",
							k, keepSpace, i, got[i].Text, got[i].Kind, want[i].Text, want[i].Kind, s)
					}
				}
			}
			checkWordTokens(t, seg, s)
		}
	})
}

// FuzzIsPunct pins the ASCII-table-plus-sorted-fallback IsPunct against
// the retained map-based reference over arbitrary runes.
func FuzzIsPunct(f *testing.F) {
	f.Add(int32('，'))
	f.Add(int32('a'))
	f.Add(int32('~'))
	f.Fuzz(func(t *testing.T, r rune) {
		if got, want := IsPunct(r), referenceIsPunct(r); got != want {
			t.Fatalf("IsPunct(%q) = %v, reference %v", r, got, want)
		}
	})
}
