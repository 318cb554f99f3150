package tokenize

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// hashHan is the 200 Han runes hashVocab pairs up.
func hashHan() []rune {
	runes := make([]rune, 200)
	for i := range runes {
		runes[i] = hanLo + rune(i)*37
	}
	return runes
}

// hashPrefix is the stem of hashVocab's long words.
const hashPrefix = "天地玄黄宇宙洪荒日月盈昃辰宿列张"

// hashVocab is a dictionary built to stress the edge table rather than
// to look like the word bank: every two-rune word over 200 Han runes (a
// 200-way root over 200-way nodes, some 40,000 edges, so home slots
// collide and probe runs wrap past the table's end), words sharing long
// prefixes, and words whose first rune is not Han — Latin, digits,
// emoji, U+0000 (whose edge key is an empty slot's key) and U+10FFFF.
func hashVocab() []string {
	han := hashHan()
	var vocab []string
	for _, a := range han {
		for _, b := range han {
			vocab = append(vocab, string([]rune{a, b}))
		}
	}
	p := []rune(hashPrefix)
	for _, n := range []int{3, 5, 8, 12, 16} {
		vocab = append(vocab, string(p[:n]))
	}
	for _, n := range []int{6, 10, 15} {
		vocab = append(vocab, string(p[:n])+string(han[n]), string(p[:n])+"好")
	}
	// Longer words over the paired runes: the walk passes a two-rune word
	// and must keep going.
	vocab = append(vocab, string(han[:4]), string(han[:7]), string(han[10:13]))
	// A one-rune word at the root with no word below it: a leaf edge
	// the walk takes first.
	vocab = append(vocab, "好")
	return append(vocab,
		"ok", "okay", "abc", "123", "1", "１２", "😀", "😀😁", "😀好评",
		"\x00", "\x00\x00", "\x00好", "\U0010FFFF", "\U0010FFFF\U0010FFFF", "\U0010FFFF"+string(han[0]),
		"", "\xff好", "好\xffa", // ignored: empty and invalid UTF-8
	)
}

// hashCorpus builds texts over hashVocab's runes and pieces, with runes
// outside it, punctuation and spaces between, so the walk meets every
// kind of edge, and every kind of miss, at every depth.
func hashCorpus(n int) []string {
	rng := rand.New(rand.NewSource(11))
	han := hashHan()
	pieces := []string{
		hashPrefix, hashPrefix[:3*7], hashPrefix[:3*11] + "好", "好", "评",
		"ok", "okay", "okayish", "abc", "123", "1", "１２", "😀", "😀😁", "😀好评",
		"\x00", "\x00\x00\x00", "\U0010FFFF", "\U0010FFFF\U0010FFFF", "，", "！", " ", "\t", "a",
	}
	out := make([]string, n)
	for i := range out {
		var b strings.Builder
		for j := 0; j < 2+rng.Intn(30); j++ {
			if rng.Intn(3) > 0 {
				b.WriteRune(han[rng.Intn(len(han))])
			} else {
				b.WriteString(pieces[rng.Intn(len(pieces))])
			}
		}
		out[i] = b.String()
	}
	return out
}

// referenceIDs is the word ID contract without a trie: the vocabulary's
// distinct valid words ordered by length in runes, then by rune — the
// breadth-first order of their nodes, children in rune order.
func referenceIDs(vocab []string) map[string]int32 {
	var words []string
	for _, w := range vocab {
		if w != "" && utf8.ValidString(w) {
			words = append(words, w)
		}
	}
	slices.SortFunc(words, func(a, b string) int {
		return cmp.Or(cmp.Compare(utf8.RuneCountInString(a), utf8.RuneCountInString(b)), strings.Compare(a, b))
	})
	ids := make(map[string]int32)
	for _, w := range slices.Compact(words) {
		ids[w] = int32(len(ids))
	}
	return ids
}

// checkAgainstReference compares seg's token streams with the reference
// segmenter's over texts, and every word token's ID with WordID.
func checkAgainstReference(t *testing.T, seg *Segmenter, ref *reference, texts []string) {
	t.Helper()
	for _, text := range texts {
		for _, keepSpace := range []bool{false, true} {
			got := seg.appendTokens(nil, text, keepSpace)
			want := ref.referenceSegment(text, keepSpace)
			if len(got) != len(want) {
				t.Fatalf("%q keepSpace=%v: %d tokens, reference %d", text, keepSpace, len(got), len(want))
			}
			for i := range got {
				if got[i].Text != want[i].Text || got[i].Kind != want[i].Kind {
					t.Fatalf("%q token %d: {%q %d} vs reference {%q %d}", text, i, got[i].Text, got[i].Kind, want[i].Text, want[i].Kind)
				}
			}
		}
		checkWordTokens(t, seg, text)
	}
}

// checkWordIDs holds seg's IDs to referenceIDs: every word has its
// place in breadth-first order, and no other string has an ID.
func checkWordIDs(t *testing.T, seg *Segmenter, vocab []string, others []string) {
	t.Helper()
	ids := referenceIDs(vocab)
	if seg.DictSize() != len(ids) {
		t.Fatalf("DictSize() = %d, want %d", seg.DictSize(), len(ids))
	}
	for w, want := range ids {
		if got := seg.WordID(w); got != want {
			t.Fatalf("WordID(%q) = %d, want %d", w, got, want)
		}
	}
	for _, w := range others {
		if _, ok := ids[w]; !ok && seg.WordID(w) != NoID {
			t.Fatalf("WordID(%q) = %d for a string the vocabulary does not hold", w, seg.WordID(w))
		}
	}
}

// TestTrieHashVocabMatchesReference runs the differential checks on
// hashVocab, whose table is large and crowded enough that edges sit
// away from their home slots and some probe runs wrap around: the test
// first checks that it does stress both.
func TestTrieHashVocabMatchesReference(t *testing.T) {
	vocab := hashVocab()
	seg := NewSegmenter(vocab)
	displaced, wrapped := 0, 0
	for i, e := range seg.trie.edges {
		if e.next == 0 {
			continue
		}
		if home := seg.trie.slot(e.key); home != i {
			displaced++
			if i < home {
				wrapped++
			}
		}
	}
	if displaced == 0 || wrapped == 0 {
		t.Fatalf("%d edges away from their home slot, %d of them past the table's end: the vocabulary no longer stresses the table", displaced, wrapped)
	}
	texts := hashCorpus(1500)
	checkAgainstReference(t, seg, newReference(vocab), texts)

	p := []rune(hashPrefix)
	others := []string{"", "\x00\x00\x00", "天", string(p[:4]), string(p[:13]), hashPrefix + "天", "😁", "\U0010FFFE", "o", "abcd", "\xff好"}
	for _, r := range hashHan()[:20] {
		others = append(others, string(r), string([]rune{r, r, r}))
	}
	checkWordIDs(t, seg, vocab, append(others, texts[:100]...))

	// The same words in another order and with repeats: the same trie.
	shuffled := slices.Clone(vocab)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	shuffled = append(shuffled, vocab[:50]...)
	if other := NewSegmenter(shuffled); !slices.Equal(other.trie.edges, seg.trie.edges) || other.DictSize() != seg.DictSize() {
		t.Fatal("a shuffled vocabulary with repeats builds another trie")
	}
}

// TestTrieEmptyVocab: with no word, or only words the segmenter ignores,
// every probe misses — U+0000 at the root included, whose edge key is
// the key of every empty slot — and segmentation is the reference's
// with an empty dictionary.
func TestTrieEmptyVocab(t *testing.T) {
	texts := append(hashCorpus(200), "\x00", "\x00\x00好", "ok 123 😀")
	for _, vocab := range [][]string{nil, {}, {"", "\xff", "a\xffb"}} {
		seg := NewSegmenter(vocab)
		checkAgainstReference(t, seg, newReference(nil), texts)
		checkWordIDs(t, seg, nil, append([]string{"\x00", "ok", "好", "\U0010FFFF"}, texts...))
	}
}
