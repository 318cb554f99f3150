package tokenize

import (
	"reflect"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func newTestSegmenter() *Segmenter {
	return NewSegmenter([]string{"我", "很", "喜欢", "这件", "商品", "好评", "质量", "不错", "物流", "很快"})
}

func TestSegmentPaperExample(t *testing.T) {
	// The paper's running example: 我很喜欢这件商品 →
	// {我, 很, 喜欢, 这件, 商品}.
	seg := newTestSegmenter()
	got := seg.Words("我很喜欢这件商品")
	want := []string{"我", "很", "喜欢", "这件", "商品"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Words() = %v, want %v", got, want)
	}
}

func TestSegmentMaximumMatch(t *testing.T) {
	// 喜欢 must be preferred over 喜+欢 (greedy longest match).
	seg := newTestSegmenter()
	toks := seg.Segment("喜欢")
	if len(toks) != 1 || toks[0].Text != "喜欢" {
		t.Fatalf("Segment(喜欢) = %v, want single token 喜欢", toks)
	}
}

func TestSegmentUnknownRunesFallBackToSingles(t *testing.T) {
	seg := newTestSegmenter()
	got := seg.Words("鑫垚")
	want := []string{"鑫", "垚"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Words(unknown) = %v, want %v", got, want)
	}
}

func TestSegmentPunctuation(t *testing.T) {
	seg := newTestSegmenter()
	toks := seg.Segment("质量不错，物流很快！")
	var words, puncts int
	for _, tok := range toks {
		switch tok.Kind {
		case KindWord:
			words++
		case KindPunct:
			puncts++
		}
	}
	if words != 4 {
		t.Errorf("got %d words, want 4", words)
	}
	if puncts != 2 {
		t.Errorf("got %d puncts, want 2", puncts)
	}
}

func TestSegmentLatinAndDigits(t *testing.T) {
	seg := newTestSegmenter()
	got := seg.Words("质量ok 5星")
	want := []string{"质量", "ok", "5", "星"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Words() = %v, want %v", got, want)
	}
}

func TestSegmentAllKeepsWhitespace(t *testing.T) {
	seg := newTestSegmenter()
	toks := seg.SegmentAll("我 很")
	if len(toks) != 3 || toks[1].Kind != KindSpace {
		t.Fatalf("SegmentAll = %v, want word, space, word", toks)
	}
}

func TestSegmentEmpty(t *testing.T) {
	seg := newTestSegmenter()
	if got := seg.Segment(""); len(got) != 0 {
		t.Fatalf("Segment(\"\") = %v, want empty", got)
	}
}

func TestSegmenterNoDict(t *testing.T) {
	seg := NewSegmenter(nil)
	got := seg.Words("好评")
	want := []string{"好", "评"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Words() with empty dict = %v, want %v", got, want)
	}
}

func TestContains(t *testing.T) {
	seg := newTestSegmenter()
	if !seg.Contains("好评") {
		t.Error("Contains(好评) = false, want true")
	}
	if seg.Contains("差评") {
		t.Error("Contains(差评) = true, want false")
	}
	if seg.DictSize() != 10 {
		t.Errorf("DictSize = %d, want 10", seg.DictSize())
	}
}

func TestIsPunct(t *testing.T) {
	for _, r := range "，。！？；～…、" {
		if !IsPunct(r) {
			t.Errorf("IsPunct(%c) = false, want true", r)
		}
	}
	for _, r := range "好a5 " {
		if IsPunct(r) {
			t.Errorf("IsPunct(%q) = true, want false", r)
		}
	}
}

func TestCountPunct(t *testing.T) {
	if got := CountPunct("很好！！，。abc"); got != 4 {
		t.Fatalf("CountPunct = %d, want 4", got)
	}
}

func TestRuneLen(t *testing.T) {
	if got := RuneLen("好评ab"); got != 4 {
		t.Fatalf("RuneLen = %d, want 4", got)
	}
	if got := RuneLen(""); got != 0 {
		t.Fatalf("RuneLen(\"\") = %d, want 0", got)
	}
}

// Property: segmentation is lossless over word+punct content — joining
// all token texts reproduces the input exactly (whitespace kept).
func TestSegmentRoundTripProperty(t *testing.T) {
	seg := newTestSegmenter()
	f := func(s string) bool {
		if !utf8.ValidString(s) {
			return true // skip invalid UTF-8 inputs
		}
		toks := seg.SegmentAll(s)
		var joined string
		for _, tok := range toks {
			joined += tok.Text
		}
		return joined == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Words never returns punctuation or whitespace tokens.
func TestWordsExcludePunctProperty(t *testing.T) {
	seg := newTestSegmenter()
	f := func(s string) bool {
		if !utf8.ValidString(s) {
			return true
		}
		for _, w := range seg.Words(s) {
			for _, r := range w {
				if IsPunct(r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
