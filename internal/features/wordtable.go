package features

import (
	"math"

	"repro/internal/ecom"
	"repro/internal/tokenize"
)

// The word-ID analysis kernel's tables (DESIGN.md §16).
//
// Every word the models know — segmenter dictionary ∪ positive ∪
// negative ∪ sentiment vocabulary — has a dense int32 ID and one
// wordInfo record. Dictionary words keep the ID the segmenter's trie
// hands out with each token ([0, DictSize)); the few model words the
// dictionary does not hold (single runes, Latin and digit runs met in
// training text) follow, found by text through a small hash index. A
// token that is in neither gets a transient ID past the table, valid
// for the item being analyzed. With every token reduced to an ID, the
// lexicon tests, the sentiment sum, the per-comment word counts and the
// per-item distinct-word count are array reads: no word is hashed
// unless the dictionary does not know it.

// wordInfo is what the models say about one word.
type wordInfo struct {
	// term is the word's sentiment log-odds contribution l1−l0, the
	// float sentiment.Model.Score would add for it.
	term     float64
	positive bool
	negative bool
}

// buildWordTable interns the model vocabularies. Dictionary IDs come
// from the trie the segmenter already built; this pass only walks the
// (much smaller) lexicons and the sentiment vocabulary once each.
func (e *Extractor) buildWordTable() {
	e.oov = wordInfo{term: e.sent.OOVLogOdds()}
	e.words = make([]wordInfo, e.seg.DictSize(), e.seg.DictSize()+16)
	for i := range e.words {
		e.words[i] = e.oov
	}
	e.pos.Each(func(w string) { e.words[e.intern(w)].positive = true })
	e.neg.Each(func(w string) { e.words[e.intern(w)].negative = true })
	e.sent.EachWordLogOdds(func(w string, term float64) { e.words[e.intern(w)].term = term })
}

// intern returns w's table ID, adding w after the dictionary's IDs when
// neither the dictionary nor an earlier intern knows it.
func (e *Extractor) intern(w string) int32 {
	if id := e.seg.WordID(w); id != tokenize.NoID {
		return id
	}
	idx, added := e.extra.intern(hashWord(w), w)
	if added {
		e.words = append(e.words, e.oov)
	}
	return int32(e.seg.DictSize()) + idx
}

// tableID resolves a token the dictionary gave no ID: the table ID of a
// model word outside the dictionary, or NoID.
//
//cats:hotpath
func (e *Extractor) tableID(h uint32, text string) int32 {
	if idx := e.extra.find(h, text); idx >= 0 {
		return int32(e.seg.DictSize()) + idx
	}
	return tokenize.NoID
}

// wordIndex maps word text to dense indices in insertion order: open
// addressing with linear probing over FNV-1a hashes. The extractor
// keeps one for the model words outside the dictionary (built once,
// then read-only); each pooled scratch keeps one for the current item's
// transient words and empties it when the item ends.
type wordIndex struct {
	slots []wordSlot // power-of-two length once non-empty, at most half full
	used  []int32    // occupied slots in insertion order; slot used[k] holds index k
}

type wordSlot struct {
	key  string
	hash uint32
	idx  int32 // index+1; 0 marks a free slot
}

//cats:hotpath
func hashWord(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// find returns key's index, or -1.
//
//cats:hotpath
func (x *wordIndex) find(h uint32, key string) int32 {
	if len(x.used) == 0 {
		return -1
	}
	mask := uint32(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.idx == 0 {
			return -1
		}
		if s.hash == h && s.key == key {
			return s.idx - 1
		}
	}
}

// intern returns key's index, adding it (and retaining key) if absent.
func (x *wordIndex) intern(h uint32, key string) (idx int32, added bool) {
	if 2*(len(x.used)+1) > len(x.slots) {
		x.grow()
	}
	mask := uint32(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.idx == 0 {
			idx = int32(len(x.used))
			*s = wordSlot{key: key, hash: h, idx: idx + 1}
			x.used = append(x.used, int32(i))
			return idx, true
		}
		if s.hash == h && s.key == key {
			return s.idx - 1, false
		}
	}
}

func (x *wordIndex) grow() {
	old := x.slots
	x.slots = make([]wordSlot, max(16, 2*len(old)))
	mask := uint32(len(x.slots) - 1)
	for k, at := range x.used {
		s := old[at]
		i := s.hash & mask
		for x.slots[i].idx != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = s
		x.used[k] = int32(i)
	}
}

// reset empties the index, dropping every retained key, in time
// proportional to the number of entries rather than the capacity.
func (x *wordIndex) reset() {
	for _, at := range x.used {
		x.slots[at] = wordSlot{}
	}
	x.used = x.used[:0]
}

// wordCell is a scratch's mutable state for one word ID. stamp is the
// epoch of the last comment the word occurred in; count is its number
// of occurrences in that comment. Epochs only ever grow within a
// scratch, so a cell written by an earlier comment, item or extractor
// reads as "not seen yet" without ever being cleared.
type wordCell struct {
	stamp uint32
	count int32
}

// scratch is the pooled per-call workspace of the analysis layer. Every
// buffer is reused across comments (and across pool round-trips), so a
// warmed analysis pass performs no allocation beyond outputs the caller
// retains. Nothing in it references input text once endItem has run:
// tokens are offsets and IDs, and the transient index is emptied.
type scratch struct {
	toks      []tokenize.WordToken
	cells     []wordCell // indexed by word ID: the table's, then transient ones
	touched   []int32    // IDs first met in the current comment, in order
	counts    []int32    // their occurrence counts, for the entropy sum
	transient wordIndex  // current item's words outside the table
	texts     []string   // current item's comment contents, when VectorSignal gathered them

	epoch     uint32 // current comment
	itemStart uint32 // first comment epoch of the current item
	distinct  int    // distinct words in the current item so far
}

// beginItem readies the scratch for an item of the given comment count
// analyzed against a table of tableSize IDs. Epochs restart from a
// cleared cell array before they could wrap within the item.
func (sc *scratch) beginItem(tableSize, comments int) {
	if len(sc.cells) < tableSize {
		sc.cells = append(sc.cells, make([]wordCell, tableSize-len(sc.cells))...)
	}
	if uint64(sc.epoch)+uint64(comments) >= math.MaxUint32 {
		clear(sc.cells)
		sc.epoch = 0
	}
	sc.itemStart = sc.epoch + 1
	sc.distinct = 0
}

// gather lists the item's comment contents in the scratch, until endItem.
func (sc *scratch) gather(item *ecom.Item) []string {
	for i := range item.Comments {
		sc.texts = append(sc.texts, item.Comments[i].Content)
	}
	return sc.texts
}

// endItem drops what the scratch retained of the item's text.
func (sc *scratch) endItem() {
	sc.transient.reset()
	clear(sc.texts)
	sc.texts = sc.texts[:0]
}

// transientID returns the item-scoped ID of a word outside the table,
// growing the cell array to cover it.
func (sc *scratch) transientID(tableSize int, h uint32, text string) int32 {
	idx, _ := sc.transient.intern(h, text)
	id := tableSize + int(idx)
	if id >= len(sc.cells) {
		sc.cells = append(sc.cells, make([]wordCell, id+1-len(sc.cells))...)
	}
	return int32(id)
}
