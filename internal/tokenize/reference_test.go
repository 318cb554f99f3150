package tokenize

import (
	"unicode"
	"unicode/utf8"
)

// reference is the pre-trie segmenter: the vocabulary as a plain map
// and the longest entry's length in runes.
type reference struct {
	dict   map[string]struct{}
	maxLen int
}

func newReference(vocab []string) *reference {
	s := &reference{dict: make(map[string]struct{}, len(vocab)), maxLen: 1}
	for _, w := range vocab {
		if w == "" {
			continue
		}
		s.dict[w] = struct{}{}
		if n := utf8.RuneCountInString(w); n > s.maxLen {
			s.maxLen = n
		}
	}
	return s
}

// referenceSegment is the pre-trie segmentation algorithm, retained
// verbatim as the equivalence oracle for the byte-level trie walk: it
// converts the input to a []rune and probes the dictionary map with a
// freshly built substring per candidate length, exactly as the
// segmenter did before the flattened trie. The differential fuzz and
// equivalence tests require appendTokens to emit the same Text/Kind
// stream this produces on any valid UTF-8 input.
//
// Only Text and Kind are populated: the reference predates byte
// offsets, and the tests compare the token stream, not the offsets.
func (s *reference) referenceSegment(text string, keepSpace bool) []Token {
	runes := []rune(text)
	toks := make([]Token, 0, len(runes)/2+1)
	i := 0
	for i < len(runes) {
		r := runes[i]
		switch {
		case unicode.IsSpace(r):
			j := i
			for j < len(runes) && unicode.IsSpace(runes[j]) {
				j++
			}
			if keepSpace {
				toks = append(toks, Token{Text: string(runes[i:j]), Kind: KindSpace})
			}
			i = j
		case referenceIsPunct(r):
			toks = append(toks, Token{Text: string(r), Kind: KindPunct})
			i++
		case isLatin(r):
			j := i
			for j < len(runes) && isLatin(runes[j]) {
				j++
			}
			toks = append(toks, Token{Text: string(runes[i:j]), Kind: KindWord})
			i = j
		case unicode.IsDigit(r):
			j := i
			for j < len(runes) && unicode.IsDigit(runes[j]) {
				j++
			}
			toks = append(toks, Token{Text: string(runes[i:j]), Kind: KindWord})
			i = j
		default:
			// CJK (or anything else): forward maximum match.
			matched := 1
			limit := s.maxLen
			if rem := len(runes) - i; rem < limit {
				limit = rem
			}
			for l := limit; l >= 2; l-- {
				if _, ok := s.dict[string(runes[i:i+l])]; ok {
					matched = l
					break
				}
			}
			toks = append(toks, Token{Text: string(runes[i : i+matched]), Kind: KindWord})
			i += matched
		}
	}
	return toks
}

// referenceIsPunct is the pre-table IsPunct: an explicit rune set
// unioned with the unicode tables. The IsPunct equivalence test pins
// the ASCII lookup table against it over the whole rune space.
func referenceIsPunct(r rune) bool {
	if _, ok := referencePunctSet[r]; ok {
		return true
	}
	return unicode.IsPunct(r) || unicode.IsSymbol(r)
}

var referencePunctSet = map[rune]struct{}{}

func init() {
	for _, r := range punctExtra {
		referencePunctSet[r] = struct{}{}
	}
}
