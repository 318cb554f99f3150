package tokenize

import (
	"math/bits"
	"slices"
	"unicode/utf8"
)

// NoID is the word ID of a token whose text is not a dictionary word.
const NoID int32 = -1

// The CJK Unified Ideographs block. Runes in it are never whitespace,
// punctuation, Latin letters or digits (TestHanRangeIsPlainWordRunes
// sweeps the block against every classifier), so the segmenter sends
// them straight to the dictionary match.
const (
	hanLo   rune = 0x4E00
	hanHi   rune = 0x9FFF
	hanSpan      = int(hanHi-hanLo) + 1
)

//cats:hotpath
func isHan(r rune) bool { return uint32(r-hanLo) < uint32(hanSpan) }

// matchTrie is the segmenter's dictionary as a prefix trie whose edges
// all live in one open-addressed hash table keyed by (node, rune): a
// step from a node over a rune is one hashed probe, whatever the
// node's fan-out, with no pointer chasing and no per-probe allocation.
// Matching walks the input's UTF-8 bytes directly — the segmenter never
// materializes a []rune and never builds a substring to look up.
//
// An edge carries what the walk needs of the node it leads to: that
// node's index, or leaf when the node has no children (the walk stops
// there without probing), and the dense ID of the dictionary word
// ending there (NoID if none). IDs are assigned in breadth-first order
// of the nodes, children in rune order, so the same vocabulary always
// gets the same IDs; the walk that finds a token therefore also names
// it, and nothing downstream has to hash its text.
//
// The trie is immutable after construction and safe for concurrent use.
type matchTrie struct {
	// edges is the hash table: a power of two long and at most half
	// full, so every probe sequence reaches an empty slot (next 0).
	edges []trieEdge
	// shift turns a key's 64-bit product into a slot index: the table
	// is 1<<(64-shift) slots long.
	shift uint8
	// words is the number of word IDs handed out: IDs are [0, words).
	words int32
}

// trieEdge is one edge in a slot of the table. key is edgeKey of the
// node it leaves and the rune it steps over. next is the child's node
// index, or leaf; 0 marks an empty slot, since node 0 is the root and
// never a child. id is the ID of the dictionary word ending at the
// child, or NoID.
type trieEdge struct {
	key  uint64
	next int32
	id   int32
}

// edgeKey packs an edge's node and rune into its table key.
//
//cats:hotpath
func edgeKey(n int32, r rune) uint64 { return uint64(uint32(n))<<32 | uint64(uint32(r)) }

// leaf is trieEdge.next for a child with no children of its own.
const leaf int32 = -1

// buildNode is the temporary node used only while inserting the
// vocabulary: first-child/next-sibling links into one slice, so the
// build allocates no per-node map. flatten converts the result into the
// edge table.
type buildNode struct {
	r        rune
	child    int32 // most recently added child, 0 for none
	sibling  int32 // previously added sibling, 0 for none
	terminal bool
}

// newMatchTrie builds the trie from the vocabulary. Empty entries are
// ignored, and so are entries that are not valid UTF-8: the match never
// steps over an invalid byte, so such an entry could never equal a
// token's text.
//
// The words are inserted in sorted order (a vocabulary that is not
// sorted is sorted in a copy), so a node's children are added in rune
// order and the only child a later word can share is the one added
// last: each insertion step compares one rune, and a node's children
// are linked newest first.
func newMatchTrie(vocab []string) *matchTrie {
	if !slices.IsSorted(vocab) {
		vocab = slices.Clone(vocab)
		slices.Sort(vocab)
	}
	b := make([]buildNode, 1, 2*len(vocab)+1)
	for _, w := range vocab {
		if w == "" || !utf8.ValidString(w) {
			continue
		}
		cur := int32(0)
		for _, r := range w {
			next := b[cur].child
			if next == 0 || b[next].r != r {
				next = int32(len(b))
				b = append(b, buildNode{r: r, sibling: b[cur].child})
				b[cur].child = next
			}
			cur = next
		}
		b[cur].terminal = true
	}
	t := &matchTrie{}
	t.flatten(b)
	return t
}

// flatten numbers the build trie's nodes breadth-first, each node's
// children in rune order, hands out word IDs in the same order, and
// inserts every edge into a table sized to stay at most half full.
func (t *matchTrie) flatten(b []buildNode) {
	size := 2
	for size < 2*(len(b)-1) {
		size <<= 1
	}
	t.edges = make([]trieEdge, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	queue := make([]int32, 1, len(b)) // build indices; position is the node index
	for head := 0; head < len(queue); head++ {
		first := len(queue)
		for c := b[queue[head]].child; c != 0; c = b[c].sibling {
			queue = append(queue, c)
		}
		// The links run newest, that is highest rune, first.
		slices.Reverse(queue[first:])
		for i := first; i < len(queue); i++ {
			c := &b[queue[i]]
			e := trieEdge{key: edgeKey(int32(head), c.r), next: int32(i), id: NoID}
			if c.child == 0 {
				e.next = leaf
			}
			if c.terminal {
				e.id = t.words
				t.words++
			}
			t.insert(e)
		}
	}
}

// slot is the home slot of the edge with key k.
//
//cats:hotpath
func (t *matchTrie) slot(k uint64) int { return int(k * 0x9E3779B97F4A7C15 >> (t.shift & 63)) }

// insert puts e in the first empty slot from its home slot on.
func (t *matchTrie) insert(e trieEdge) {
	mask := len(t.edges) - 1
	i := t.slot(e.key)
	for t.edges[i].next != 0 {
		i = (i + 1) & mask
	}
	t.edges[i] = e
}

// step returns the edge from node n over rune r: its slot, or an empty
// slot (next 0) when n has no child for r. An empty slot's key is the
// root's over U+0000, so a probe for that edge, when the root has none,
// stops at an empty slot as at a match, and reads the same miss.
//
//cats:hotpath
func (t *matchTrie) step(n int32, r rune) trieEdge {
	k, mask := edgeKey(n, r), len(t.edges)-1
	for i := t.slot(k); ; i = (i + 1) & mask {
		if e := t.edges[i]; e.key == k || e.next == 0 {
			return e
		}
	}
}

// match returns the word token of text whose first rune ends at byte
// offset end and is carried by first, the root's edge for it (empty
// when the root has none): the longest dictionary word of at least two
// runes starting with that rune, or else the rune on its own. Two runes
// is the lower bound the forward-maximum-match loop has always used; a
// one-rune dictionary hit segments exactly like the single-rune
// fallback and differs only in carrying an ID. id is the matched
// word's ID, or NoID when the single rune is not itself a dictionary
// word.
//
// Matching only ever walks forward over text's bytes; no rune slice or
// probe string is built. It stops at an invalid byte, so a word token's
// text is always valid UTF-8 and equals a dictionary word exactly when
// it carries that word's ID.
//
//cats:hotpath
func (t *matchTrie) match(text string, end int, first trieEdge) (int, int, int32) {
	if first.next == 0 {
		return end, 1, NoID
	}
	runes, id := 1, first.id
	for j, n, cur := end, 1, first.next; cur != leaf && j < len(text); {
		r, sz := decodeWide(text, j), 3
		if r < 0 {
			if r, sz = utf8.DecodeRuneInString(text[j:]); r == utf8.RuneError && sz == 1 {
				break
			}
		}
		e := t.step(cur, r)
		if e.next == 0 {
			break
		}
		j += sz
		n++
		if e.id != NoID {
			end, runes, id = j, n, e.id
		}
		cur = e.next
	}
	return end, runes, id
}

// lookup returns the ID of the dictionary word equal to w, or NoID.
//
//cats:hotpath
func (t *matchTrie) lookup(w string) int32 {
	if w == "" || !utf8.ValidString(w) {
		return NoID
	}
	cur, id := int32(0), NoID
	for _, r := range w {
		if cur == leaf {
			return NoID
		}
		e := t.step(cur, r)
		if e.next == 0 {
			return NoID
		}
		cur, id = e.next, e.id
	}
	return id
}

// decodeWide decodes the three-byte sequence at text[i:] when its lead
// byte is E4–E9 — U+4000–U+9FFF, never overlong and never a surrogate,
// and nearly every rune of the comments this package segments — and
// returns -1 for anything else.
//
//cats:hotpath
func decodeWide(text string, i int) rune {
	if i+2 < len(text) && text[i]-0xE4 <= 0xE9-0xE4 && text[i+1]&0xC0 == 0x80 && text[i+2]&0xC0 == 0x80 {
		return rune(text[i]&0x0F)<<12 | rune(text[i+1]&0x3F)<<6 | rune(text[i+2]&0x3F)
	}
	return -1
}
