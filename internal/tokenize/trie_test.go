package tokenize

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

// trieCorpus builds deterministic pseudo-comments over the test
// dictionary's runes so maximum matching constantly has overlapping
// candidates to choose between.
func trieCorpus(n int) []string {
	rng := rand.New(rand.NewSource(7))
	pieces := []string{
		"我", "喜", "欢", "我喜欢", "好评", "质量", "不错", "五星好评",
		"ok", "123", "！", "，", " ", "　", "~", "3.14", "星",
	}
	out := make([]string, n)
	for i := range out {
		var b strings.Builder
		for j := 0; j < 3+rng.Intn(20); j++ {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		out[i] = b.String()
	}
	return out
}

// TestTrieMatchesReference pins the trie walk against the retained
// map-based reference on a deterministic corpus (the fuzz target covers
// arbitrary input; this keeps the property in every plain `go test`).
func TestTrieMatchesReference(t *testing.T) {
	seg := fuzzSegmenter()
	for _, text := range trieCorpus(500) {
		for _, keepSpace := range []bool{false, true} {
			got := seg.appendTokens(nil, text, keepSpace)
			want := fuzzRef.referenceSegment(text, keepSpace)
			if len(got) != len(want) {
				t.Fatalf("%q keepSpace=%v: %d tokens, reference %d", text, keepSpace, len(got), len(want))
			}
			for i := range got {
				if got[i].Text != want[i].Text || got[i].Kind != want[i].Kind {
					t.Fatalf("%q token %d: {%q %d} vs reference {%q %d}",
						text, i, got[i].Text, got[i].Kind, want[i].Text, want[i].Kind)
				}
			}
		}
	}
}

// TestTrieMatchesReferenceQuick drives the same differential property
// through testing/quick's generator for arbitrary valid UTF-8.
func TestTrieMatchesReferenceQuick(t *testing.T) {
	seg := fuzzSegmenter()
	f := func(s string) bool {
		if !utf8.ValidString(s) {
			return true
		}
		got := seg.appendTokens(nil, s, true)
		want := fuzzRef.referenceSegment(s, true)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Text != want[i].Text || got[i].Kind != want[i].Kind {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestTokenOffsets: every token's Start/End must slice the input to its
// Text and Runes must be its rune count — the contract AnalyzeComment
// relies on to avoid re-scanning token text.
func TestTokenOffsets(t *testing.T) {
	seg := fuzzSegmenter()
	for _, text := range trieCorpus(200) {
		prev := 0
		for _, tok := range seg.SegmentAll(text) {
			if tok.Start != prev {
				t.Fatalf("%q: token %q starts at %d, want %d (contiguous)", text, tok.Text, tok.Start, prev)
			}
			if text[tok.Start:tok.End] != tok.Text {
				t.Fatalf("%q: token %q offsets [%d,%d) slice %q", text, tok.Text, tok.Start, tok.End, text[tok.Start:tok.End])
			}
			if got := utf8.RuneCountInString(tok.Text); got != tok.Runes {
				t.Fatalf("%q: token %q Runes=%d, want %d", text, tok.Text, tok.Runes, got)
			}
			prev = tok.End
		}
		if prev != len(text) {
			t.Fatalf("%q: tokens end at %d, want %d", text, prev, len(text))
		}
	}
}

// TestAppendReuseZeroAlloc: with warmed buffers, AppendTokens,
// AppendWordTokens and WordsAppend must not allocate — the zero-allocation contract of the
// segmentation hot path.
func TestAppendReuseZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	seg := fuzzSegmenter()
	texts := trieCorpus(50)
	toks := make([]Token, 0, 256)
	wtoks := make([]WordToken, 0, 256)
	words := make([]string, 0, 256)
	// Warm the Words scratch pool outside the measured region.
	_ = seg.Words(texts[0])

	allocs := testing.AllocsPerRun(100, func() {
		for _, text := range texts {
			toks = seg.AppendTokens(toks[:0], text)
			wtoks, _, _ = seg.AppendWordTokens(wtoks[:0], text)
			words = seg.WordsAppend(words[:0], text)
		}
	})
	if allocs > 0 {
		t.Fatalf("append hot path allocated %.1f times per run, want 0", allocs)
	}
}

// TestIsPunctTableSweep pins the table-based IsPunct against the
// retained reference across the BMP plus a band above it.
func TestIsPunctTableSweep(t *testing.T) {
	for r := rune(0); r <= 0x11000; r++ {
		if got, want := IsPunct(r), referenceIsPunct(r); got != want {
			t.Fatalf("IsPunct(%U) = %v, reference %v", r, got, want)
		}
	}
}

// TestWordsZeroCopy: returned words must alias the input string's
// backing bytes, not fresh allocations.
func TestWordsZeroCopy(t *testing.T) {
	seg := fuzzSegmenter()
	text := "我喜欢质量不错ok123"
	for _, w := range seg.Words(text) {
		if !strings.Contains(text, w) {
			t.Fatalf("word %q not a substring of input", w)
		}
	}
	// Two words from one run share the input's backing array: compare
	// via offsets instead of unsafe tricks — covered by TestTokenOffsets.
	toks := seg.Segment(text)
	for _, tok := range toks {
		if text[tok.Start:tok.End] != tok.Text {
			t.Fatalf("token %q is not input[%d:%d]", tok.Text, tok.Start, tok.End)
		}
	}
}
