// Package tokenize provides dictionary-driven word segmentation for
// Chinese-style e-commerce comment text, plus rune classification
// helpers used by the structural feature extractors.
//
// Comments on the platforms CATS targets are written mostly in Chinese,
// which has no word boundaries. CATS' upstream implementation relied on
// the segmenters embedded in SnowNLP/jieba; this package reimplements
// the same idea with a forward maximum-match (FMM) segmenter over a
// vocabulary dictionary. Latin runs and digit runs are emitted as single
// tokens, punctuation is emitted as punctuation tokens, and CJK runs are
// split against the dictionary with a single-rune fallback.
//
// The segmenter is built for the detection hot path: dictionary words
// live in a flattened prefix trie matched directly over the input's
// UTF-8 bytes (no []rune conversion, no per-probe substring), emitted
// tokens are zero-copy substrings of the input carrying byte offsets
// and rune counts, and the Append* entry points let callers reuse token
// and word buffers across comments so a steady-state segmentation pass
// allocates nothing. Every dictionary word also has a dense integer ID,
// carried by the trie node it ends at; AppendWordTokens hands each word
// token out with its ID, so a consumer that indexes by ID (the feature
// extractor's analysis kernel) never hashes a word's text.
package tokenize

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"
)

// Kind classifies a token.
type Kind uint8

// Token kinds.
const (
	KindWord  Kind = iota // dictionary or fallback word (CJK, latin, digits)
	KindPunct             // punctuation or symbol
	KindSpace             // whitespace run (usually dropped by callers)
)

// Token is a single segmented unit of text. Text aliases the segmented
// input (a zero-copy substring, never a fresh allocation), and Start and
// End are its byte offsets within that input: Text == input[Start:End].
// Runes is Text's length in runes, counted during the segmentation walk
// so callers never re-scan token text.
type Token struct {
	Text  string
	Start int
	End   int
	Runes int
	Kind  Kind
}

// Segmenter splits unsegmented text into word and punctuation tokens
// using forward maximum matching against a dictionary.
//
// A Segmenter is immutable after construction (apart from its call
// counter) and safe for concurrent use by multiple goroutines.
type Segmenter struct {
	// trie is the vocabulary as a flattened prefix trie whose terminal
	// nodes carry dense word IDs; it is the segmenter's only copy of
	// the dictionary.
	trie *matchTrie

	// calls counts segmentation passes, so tests can assert the
	// detection paths segment each comment exactly once. It is one
	// cache line every goroutine using the segmenter writes, so the
	// analysis kernel adds to it once per item (CountPasses), not once
	// per comment.
	calls atomic.Int64
}

// NewSegmenter builds a Segmenter from the given vocabulary. Empty
// entries (and entries that are not valid UTF-8, which no token can
// equal) are ignored. The segmenter works without a dictionary too, in
// which case every CJK rune becomes its own token.
func NewSegmenter(vocab []string) *Segmenter {
	return &Segmenter{trie: newMatchTrie(vocab)}
}

// Contains reports whether w is a dictionary word.
func (s *Segmenter) Contains(w string) bool { return s.trie.lookup(w) != NoID }

// DictSize returns the number of dictionary entries. Word IDs are the
// integers in [0, DictSize()).
func (s *Segmenter) DictSize() int { return int(s.trie.words) }

// WordID returns the dense ID of dictionary word w — the ID every token
// equal to w carries — or NoID.
func (s *Segmenter) WordID(w string) int32 { return s.trie.lookup(w) }

// Segment splits text into tokens. Whitespace runs are skipped (no
// KindSpace tokens are produced); use SegmentAll to keep them.
func (s *Segmenter) Segment(text string) []Token {
	return s.appendTokens(nil, text, false)
}

// SegmentAll splits text into tokens, keeping whitespace runs as
// KindSpace tokens.
func (s *Segmenter) SegmentAll(text string) []Token {
	return s.appendTokens(nil, text, true)
}

// AppendTokens appends text's tokens to dst and returns the extended
// slice, skipping whitespace runs like Segment. Passing dst[:0] across
// comments reuses its capacity, so a warmed buffer segments with zero
// allocations.
//
//cats:hotpath
func (s *Segmenter) AppendTokens(dst []Token, text string) []Token {
	return s.appendTokens(dst, text, false)
}

// Words segments text and returns only the word tokens' text. This is
// the common entry point for the feature extractor and the semantic
// models: punctuation and whitespace are dropped.
func (s *Segmenter) Words(text string) []string {
	return s.WordsAppend(nil, text)
}

// WordsAppend appends text's word tokens to dst and returns the
// extended slice. The appended strings are zero-copy substrings of
// text; with a reused dst the pass allocates nothing.
//
//cats:hotpath
func (s *Segmenter) WordsAppend(dst []string, text string) []string {
	bufp := tokenScratch.Get().(*[]Token)
	toks := s.appendTokens((*bufp)[:0], text, false)
	for i := range toks {
		if toks[i].Kind == KindWord {
			dst = append(dst, toks[i].Text)
		}
	}
	*bufp = toks[:0]
	tokenScratch.Put(bufp)
	return dst
}

// tokenScratch pools token buffers for entry points that only need the
// tokens transiently (Words/WordsAppend).
var tokenScratch = sync.Pool{New: func() any { b := make([]Token, 0, 64); return &b }}

// Segmentations returns the number of segmentation passes run since
// construction. One Segment/SegmentAll/Words call (or Append* variant)
// is one pass; AppendWordTokensUncounted passes are included once their
// caller has reported them with CountPasses.
func (s *Segmenter) Segmentations() int64 { return s.calls.Load() }

// CountPasses adds n to the pass counter on behalf of a caller that ran
// n AppendWordTokensUncounted passes. Concurrent workers sharing one
// segmenter all write this counter, so the analysis kernel reports an
// item's passes with one call instead of one per comment.
func (s *Segmenter) CountPasses(n int) { s.calls.Add(int64(n)) }

// appendTokens is the Token-producing loop behind Segment, SegmentAll,
// Words and their Append variants: one scan per token, each emitted as
// text[start:end] with its rune count.
//
//cats:hotpath
func (s *Segmenter) appendTokens(toks []Token, text string, keepSpace bool) []Token {
	s.calls.Add(1)
	for i := 0; i < len(text); {
		end, n, kind, _ := s.scan(text, i)
		if kind != KindSpace || keepSpace {
			toks = append(toks, Token{Text: text[i:end], Start: i, End: end, Runes: n, Kind: kind})
		}
		i = end
	}
	return toks
}

// WordToken is a word token as the analysis kernel consumes it: byte
// offsets into the segmented text and the word's dictionary ID (NoID
// for a word the dictionary does not hold). It carries no string, so a
// pooled buffer of them keeps no input alive.
type WordToken struct {
	Start, End int
	ID         int32
}

// AppendWordTokens appends text's word tokens to dst, each with its
// dictionary word ID, and returns the extended slice with the text's
// total length in runes (whitespace included) and its number of
// punctuation runes. It is one segmentation pass: the token boundaries
// are exactly those of SegmentAll.
//
//cats:hotpath
func (s *Segmenter) AppendWordTokens(dst []WordToken, text string) (toks []WordToken, runes, punct int) {
	s.calls.Add(1)
	return s.AppendWordTokensUncounted(dst, text)
}

// AppendWordTokensUncounted is AppendWordTokens without the add to the
// pass counter: the caller owes Segmentations one CountPasses call
// covering every pass it ran this way.
//
//cats:hotpath
func (s *Segmenter) AppendWordTokensUncounted(dst []WordToken, text string) (toks []WordToken, runes, punct int) {
	toks = dst
	for i := 0; i < len(text); {
		end, n, kind, id := s.scan(text, i)
		runes += n
		switch kind {
		case KindWord:
			toks = append(toks, WordToken{Start: i, End: end, ID: id})
		case KindPunct:
			punct++
		}
		i = end
	}
	return toks, runes, punct
}

// scan is the single classification step behind every entry point: it
// returns the token starting at byte offset i of text as its end
// offset, rune count, kind and (for a word) dictionary ID. It advances
// over text's UTF-8 bytes directly: runs (space, latin, digit) extend
// byte offsets and dictionary matches come from the flattened trie.
// Runes of the CJK Unified block skip the classifier chain, which can
// only ever send them to the dictionary match.
//
//cats:hotpath
func (s *Segmenter) scan(text string, i int) (end, runes int, kind Kind, id int32) {
	r, sz := decodeWide(text, i), 3
	if r < 0 {
		r, sz = utf8.DecodeRuneInString(text[i:])
	}
	if isHan(r) {
		end, runes, id = s.trie.match(text, i+sz, s.trie.han[r-hanLo])
		return end, runes, KindWord, id
	}
	switch {
	case unicode.IsSpace(r):
		j, n := i+sz, 1
		for j < len(text) {
			r2, sz2 := utf8.DecodeRuneInString(text[j:])
			if !unicode.IsSpace(r2) {
				break
			}
			j += sz2
			n++
		}
		return j, n, KindSpace, NoID
	case IsPunct(r):
		return i + sz, 1, KindPunct, NoID
	case isLatin(r):
		j := i + sz
		for j < len(text) && isLatin(rune(text[j])) {
			j++
		}
		return j, j - i, KindWord, s.trie.lookup(text[i:j])
	case unicode.IsDigit(r):
		j, n := i+sz, 1
		for j < len(text) {
			r2, sz2 := utf8.DecodeRuneInString(text[j:])
			if !unicode.IsDigit(r2) {
				break
			}
			j += sz2
			n++
		}
		return j, n, KindWord, s.trie.lookup(text[i:j])
	default:
		// Anything else that is not Han: forward maximum match too.
		end, runes, id = s.trie.match(text, i+sz, s.trie.child(0, r))
		return end, runes, KindWord, id
	}
}

// punctExtra lists CJK and ASCII punctuation commonly found in
// e-commerce comments. unicode.IsPunct misses some full-width symbols
// (e.g. ～), so the set is explicit and IsPunct unions it with the
// unicode tables.
const punctExtra = "，。！？；：、…—～·“”‘’（）《》【】,.!?;:()[]\"'~-*&%$#@^_+=<>/\\|"

// asciiPunct caches the full IsPunct answer for every ASCII rune:
// explicit set, unicode punctuation, and unicode symbols folded into
// one table load.
var asciiPunct [128]bool

// punctWide holds the explicit set's non-ASCII runes, sorted for binary
// search.
var punctWide []rune

func init() {
	for r := rune(0); r < 128; r++ {
		asciiPunct[r] = strings.ContainsRune(punctExtra, r) ||
			unicode.IsPunct(r) || unicode.IsSymbol(r)
	}
	for _, r := range punctExtra {
		if r >= 128 {
			punctWide = append(punctWide, r)
		}
	}
	sort.Slice(punctWide, func(i, j int) bool { return punctWide[i] < punctWide[j] })
}

// IsPunct reports whether r is punctuation or a symbol for the purposes
// of the structural features (Fig 2 / averagePunctuationRatio).
//
//cats:hotpath
func IsPunct(r rune) bool {
	if uint32(r) < 128 {
		return asciiPunct[r]
	}
	lo, hi := 0, len(punctWide)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case punctWide[mid] == r:
			return true
		case punctWide[mid] < r:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return unicode.IsPunct(r) || unicode.IsSymbol(r)
}

//cats:hotpath
func isLatin(r rune) bool {
	return (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
}

// CountPunct counts punctuation runes in text without segmenting.
//
//cats:hotpath
func CountPunct(text string) int {
	n := 0
	for _, r := range text {
		if IsPunct(r) {
			n++
		}
	}
	return n
}

// RuneLen returns the length of text in runes. The paper's comment
// length distributions (Fig 4) are measured in characters, not bytes.
func RuneLen(text string) int {
	return utf8.RuneCountInString(text)
}
