package tokenize

import (
	"cmp"
	"slices"
	"unicode/utf8"
)

// NoID is the word ID of a token whose text is not a dictionary word.
const NoID int32 = -1

// The CJK Unified Ideographs block. Runes in it are never whitespace,
// punctuation, Latin letters or digits (TestHanRangeIsPlainWordRunes
// sweeps the block against every classifier), so the segmenter sends
// them straight to the dictionary match, and the trie resolves its
// root fan-out for them with one indexed load.
const (
	hanLo   rune = 0x4E00
	hanHi   rune = 0x9FFF
	hanSpan      = int(hanHi-hanLo) + 1
)

//cats:hotpath
func isHan(r rune) bool { return uint32(r-hanLo) < uint32(hanSpan) }

// matchTrie is the segmenter's dictionary flattened into two contiguous
// arrays: a node table and an edge table. Each node owns a sorted span
// of the edge table (edges[lo:hi], ordered by rune), so a dictionary
// probe is a binary search per rune with no pointer chasing and no
// per-probe allocation. Matching walks the input's UTF-8 bytes directly
// — the segmenter never materializes a []rune and never builds a
// substring to look up.
//
// Every node where a dictionary word ends carries that word's dense ID
// (assigned in breadth-first order, so the same vocabulary always gets
// the same IDs); the walk that finds a token therefore also names it,
// and nothing downstream has to hash its text.
//
// The trie is immutable after construction and safe for concurrent use.
type matchTrie struct {
	nodes []trieNode
	edges []trieEdge
	// han is the root's fan-out over [hanLo, hanHi]: han[r-hanLo] is
	// the root's child for r, or 0. Node 0 is the root and never a
	// child, so 0 means "no edge" here and in child.
	han []int32
	// words is the number of word IDs handed out: IDs are [0, words).
	words int32
}

// trieNode is one trie state. Its outgoing edges are edges[lo:hi],
// sorted by rune for binary search. id is the ID of the dictionary word
// ending at this node, or NoID.
type trieNode struct {
	lo, hi int32
	id     int32
}

// trieEdge maps one rune to the next node index.
type trieEdge struct {
	r    rune
	next int32
}

// buildNode is the temporary node used only while inserting the
// vocabulary: first-child/next-sibling links into one slice, so the
// build allocates no per-node map. flatten converts the result into the
// contiguous arrays.
type buildNode struct {
	r        rune
	child    int32 // first child, 0 for none
	sibling  int32 // next sibling, 0 for none
	terminal bool
}

// newMatchTrie builds the flattened trie from the vocabulary. Empty
// entries are ignored, and so are entries that are not valid UTF-8: the
// match never steps over an invalid byte, so such an entry could never
// equal a token's text.
func newMatchTrie(vocab []string) *matchTrie {
	t := &matchTrie{han: make([]int32, hanSpan)}
	b := make([]buildNode, 1, 2*len(vocab)+1)
	for _, w := range vocab {
		if w == "" || !utf8.ValidString(w) {
			continue
		}
		cur := int32(0)
		for _, r := range w {
			// While building, han indexes the root's children by build
			// index, so the widest fan-out is never searched linearly.
			atRoot := cur == 0 && isHan(r)
			next := int32(0)
			if atRoot {
				next = t.han[r-hanLo]
			} else {
				for c := b[cur].child; c != 0 && next == 0; c = b[c].sibling {
					if b[c].r == r {
						next = c
					}
				}
			}
			if next == 0 {
				next = int32(len(b))
				b = append(b, buildNode{r: r, sibling: b[cur].child})
				b[cur].child = next
				if atRoot {
					t.han[r-hanLo] = next
				}
			}
			cur = next
		}
		b[cur].terminal = true
	}
	t.flatten(b)
	return t
}

// flatten lays the build trie out breadth-first so each node's children
// are contiguous in the edge table, sorted by rune, and sibling
// subtrees stay close together in memory. Word IDs are handed out in
// the same order. It leaves han holding the root's flattened children.
func (t *matchTrie) flatten(b []buildNode) {
	t.nodes = make([]trieNode, len(b))
	t.edges = make([]trieEdge, 0, len(b)-1)
	queue := make([]int32, 1, len(b)) // build indices; position is the flat index
	for head := 0; head < len(queue); head++ {
		n := &b[queue[head]]
		node := &t.nodes[head]
		node.id = NoID
		if n.terminal {
			node.id = t.words
			t.words++
		}
		node.lo = int32(len(t.edges))
		for c := n.child; c != 0; c = b[c].sibling {
			t.edges = append(t.edges, trieEdge{r: b[c].r, next: c})
		}
		node.hi = int32(len(t.edges))
		span := t.edges[node.lo:node.hi]
		slices.SortFunc(span, func(x, y trieEdge) int { return cmp.Compare(x.r, y.r) })
		for i := range span {
			queue = append(queue, span[i].next)
			span[i].next = int32(len(queue) - 1)
		}
	}
	for _, e := range t.edges[t.nodes[0].lo:t.nodes[0].hi] {
		if isHan(e.r) {
			t.han[e.r-hanLo] = e.next
		}
	}
}

// child returns the node reached from n via rune r, or 0.
//
//cats:hotpath
func (t *matchTrie) child(n int32, r rune) int32 {
	lo, hi := t.nodes[n].lo, t.nodes[n].hi
	for lo < hi {
		mid := (lo + hi) / 2
		switch e := t.edges[mid]; {
		case e.r == r:
			return e.next
		case e.r < r:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0
}

// rootChild is child(0, r) with the CJK block resolved by table.
//
//cats:hotpath
func (t *matchTrie) rootChild(r rune) int32 {
	if isHan(r) {
		return t.han[r-hanLo]
	}
	return t.child(0, r)
}

// match returns the word token of text whose first rune ends at byte
// offset end and leads from the root to node cur (0 when the root has
// no edge for it): the longest dictionary word of at least two runes
// starting with that rune, or else the rune on its own. Two runes is
// the lower bound the forward-maximum-match loop has always used; a
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
func (t *matchTrie) match(text string, end int, cur int32) (int, int, int32) {
	runes, id := 1, NoID
	if cur == 0 {
		return end, runes, id
	}
	id = t.nodes[cur].id
	for j, n := end, 1; j < len(text); {
		r, sz := decodeWide(text, j), 3
		if r < 0 {
			if r, sz = utf8.DecodeRuneInString(text[j:]); r == utf8.RuneError && sz == 1 {
				break
			}
		}
		if cur = t.child(cur, r); cur == 0 {
			break
		}
		j += sz
		n++
		if w := t.nodes[cur].id; w != NoID {
			end, runes, id = j, n, w
		}
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
	cur := int32(0)
	for i, r := range w {
		if i == 0 {
			cur = t.rootChild(r)
		} else {
			cur = t.child(cur, r)
		}
		if cur == 0 {
			return NoID
		}
	}
	return t.nodes[cur].id
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
