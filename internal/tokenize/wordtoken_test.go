package tokenize

import (
	"slices"
	"testing"
	"unicode"
	"unicode/utf8"
)

// TestHanRangeIsPlainWordRunes proves the classifier short-cut in scan:
// no rune of the CJK Unified block is whitespace, punctuation, a Latin
// letter or a digit under any classifier the segmenter consults, so
// sending the block straight to the dictionary match cannot change a
// token.
func TestHanRangeIsPlainWordRunes(t *testing.T) {
	for r := hanLo; r <= hanHi; r++ {
		switch {
		case !isHan(r):
			t.Fatalf("%U is in [hanLo, hanHi] but isHan says no", r)
		case unicode.IsSpace(r):
			t.Fatalf("%U is whitespace", r)
		case IsPunct(r), referenceIsPunct(r):
			t.Fatalf("%U is punctuation", r)
		case isLatin(r):
			t.Fatalf("%U is Latin", r)
		case unicode.IsDigit(r):
			t.Fatalf("%U is a digit", r)
		}
	}
	for _, r := range []rune{hanLo - 1, hanHi + 1, 0, 'a', '5', '，', utf8.RuneError, -1} {
		if isHan(r) {
			t.Fatalf("isHan(%U) = true outside the block", r)
		}
	}
}

// TestDecodeWideMatchesUTF8 sweeps every rune and a set of malformed
// sequences: decodeWide either declines (-1) or agrees with the
// standard decoder on a three-byte rune.
func TestDecodeWideMatchesUTF8(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if r >= 0xD800 && r <= 0xDFFF {
			continue
		}
		s := string(r) + "x"
		want, size := utf8.DecodeRuneInString(s)
		got := decodeWide(s, 0)
		if wide := r >= 0x4000 && r <= 0x9FFF; wide != (got >= 0) {
			t.Fatalf("decodeWide(%U) = %d, in fast range: %v", r, got, wide)
		}
		if got >= 0 && (got != want || size != 3) {
			t.Fatalf("decodeWide(%U) = %U, want %U (size %d)", r, got, want, size)
		}
	}
	for _, s := range []string{"\xe4", "\xe4\xb8", "\xe4\xb8\x41", "\xe4\x41\x80", "\xe9\xbf", "\xe5\xc0\x80", "\xed\xa0\x80", "\xe0\x80\x80"} {
		if got := decodeWide(s+"好", 0); got >= 0 {
			t.Fatalf("decodeWide(%q) = %U, want -1", s, got)
		}
	}
	// A complete sequence at the very end of the text.
	if got := decodeWide("好", 0); got != '好' {
		t.Fatalf("decodeWide at end of text = %U, want 好", got)
	}
}

// checkWordTokens pins AppendWordTokens to the Token stream: same word
// boundaries, rune and punctuation totals equal to the stream's, and
// each ID equal to the dictionary's answer for the token's text — so
// two word tokens share an ID exactly when they are the same dictionary
// word, on any input, valid UTF-8 or not.
func checkWordTokens(t *testing.T, seg *Segmenter, text string) {
	t.Helper()
	before := seg.Segmentations()
	got, runes, punct := seg.AppendWordTokens(nil, text)
	if d := seg.Segmentations() - before; d != 1 {
		t.Fatalf("AppendWordTokens(%q) counted %d passes, want 1", text, d)
	}
	// The uncounted variant is the same pass and leaves the count to
	// its caller's CountPasses.
	same, sameRunes, samePunct := seg.AppendWordTokensUncounted(nil, text)
	if !slices.Equal(same, got) || sameRunes != runes || samePunct != punct {
		t.Fatalf("AppendWordTokensUncounted(%q) differs from AppendWordTokens", text)
	}
	if d := seg.Segmentations() - before; d != 1 {
		t.Fatalf("AppendWordTokensUncounted(%q) moved the pass count to %d", text, d)
	}
	seg.CountPasses(3)
	if d := seg.Segmentations() - before; d != 4 {
		t.Fatalf("CountPasses(3) moved the pass count by %d", d-1)
	}
	var wantRunes, wantPunct, k int
	for _, tok := range seg.SegmentAll(text) {
		wantRunes += tok.Runes
		switch tok.Kind {
		case KindPunct:
			wantPunct++
		case KindWord:
			if k >= len(got) {
				t.Fatalf("%q: word token %q has no WordToken", text, tok.Text)
			}
			if got[k].Start != tok.Start || got[k].End != tok.End {
				t.Fatalf("%q: word %d is [%d,%d), Token stream has [%d,%d)", text, k, got[k].Start, got[k].End, tok.Start, tok.End)
			}
			if want := seg.WordID(tok.Text); got[k].ID != want {
				t.Fatalf("%q: word %q carries ID %d, dictionary says %d", text, tok.Text, got[k].ID, want)
			}
			if !utf8.ValidString(tok.Text) {
				t.Fatalf("%q: word token %q is not valid UTF-8", text, tok.Text)
			}
			k++
		}
	}
	if k != len(got) {
		t.Fatalf("%q: %d WordTokens, Token stream has %d words", text, len(got), k)
	}
	if runes != wantRunes || punct != wantPunct {
		t.Fatalf("%q: runes %d punct %d, Token stream has %d and %d", text, runes, punct, wantRunes, wantPunct)
	}
}

func TestAppendWordTokensMatchesTokenStream(t *testing.T) {
	seg := NewSegmenter(append([]string{"ok", "123", "好�评", "\xff坏", "５"}, fuzzVocab...))
	for _, text := range trieCorpus(300) {
		checkWordTokens(t, seg, text)
	}
	for _, text := range []string{
		"", " ", "ok", "okay", "OK 123 1234 ５ ５５", "我", "我喜", "很好很",
		"好\xff评", "好�评", "好\xef\xbf评", "\xff坏", "坏", "\xe4\xb8", "我\xe4",
	} {
		checkWordTokens(t, seg, text)
	}
}

// TestWordIDs: IDs are dense, stable for a vocabulary however it is
// ordered, and only dictionary words have one.
func TestWordIDs(t *testing.T) {
	seg := fuzzSegmenter()
	seen := make(map[int32]string)
	for _, w := range fuzzVocab {
		id := seg.WordID(w)
		if id < 0 || int(id) >= seg.DictSize() {
			t.Fatalf("WordID(%q) = %d, want in [0, %d)", w, id, seg.DictSize())
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("%q and %q share ID %d", prev, w, id)
		}
		seen[id] = w
	}
	for _, w := range []string{"", "喜", "质量不", "五星好评!", "x", "\xff"} {
		if id := seg.WordID(w); id != NoID {
			t.Fatalf("WordID(%q) = %d, want NoID", w, id)
		}
	}
	reversed := make([]string, len(fuzzVocab))
	for i, w := range fuzzVocab {
		reversed[len(fuzzVocab)-1-i] = w
	}
	other := NewSegmenter(reversed)
	for _, w := range fuzzVocab {
		if seg.WordID(w) != other.WordID(w) {
			t.Fatalf("WordID(%q) depends on vocabulary order: %d vs %d", w, seg.WordID(w), other.WordID(w))
		}
	}
}
