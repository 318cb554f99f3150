package trainer

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"strings"

	"repro/internal/ecom"
)

// Feedback is one delayed-label outcome: an item the service scored
// earlier, now resolved to ground truth (a confirmed fraud case or a
// cleared listing). In the service these arrive via POST /v1/feedback;
// in tests and experiments internal/synth generates them. The tags are
// that body's keys.
type Feedback struct {
	Item  ecom.Item `json:"item"`
	Fraud bool      `json:"fraud"`
}

// record is what the window keeps of one Feedback: a copy of what a
// cycle reads of it. It aliases nothing of the Feedback it was built
// from, so whatever held that item (a decoded request body, say) is
// garbage once Feed returns, and an entry costs its comment text rather
// than its ecom.Item.
type record struct {
	id    string
	sales int
	fraud bool
	text  string   // the comments' contents end to end; one allocation with id
	ends  []uint32 // comment j's content is text[ends[j-1]:ends[j]]
}

// newRecord copies fb. It refuses an item without an id and one whose
// comment text would overflow the uint32 offsets.
func newRecord(fb *Feedback) (record, error) {
	it := &fb.Item
	if it.ID == "" {
		return record{}, errors.New("item has no id")
	}
	var n uint64
	for i := range it.Comments {
		n += uint64(len(it.Comments[i].Content))
	}
	if n > math.MaxUint32 {
		return record{}, errors.New("comment text exceeds 4 GiB")
	}
	var arena strings.Builder
	arena.Grow(len(it.ID) + int(n))
	arena.WriteString(it.ID)
	ends := make([]uint32, len(it.Comments))
	for i := range it.Comments {
		arena.WriteString(it.Comments[i].Content)
		ends[i] = uint32(arena.Len() - len(it.ID))
	}
	s := arena.String()
	return record{id: s[:len(it.ID)], sales: it.SalesVolume, fraud: fb.Fraud, text: s[len(it.ID):], ends: ends}, nil
}

// bytes is the record's share of cats_trainer_window_bytes.
func (r *record) bytes() int64 { return int64(len(r.id) + len(r.text) + 4*len(r.ends)) }

// texts returns the comments' contents as views of the arena.
func (r *record) texts() []string {
	out := make([]string, len(r.ends))
	var start uint32
	for j, end := range r.ends {
		out[j], start = r.text[start:end], end
	}
	return out
}

// window is a bounded ring of the most recent feedback for one tenant.
// When full, adding evicts the oldest entry — a sliding window over the
// label stream, so retraining always sees the freshest distribution.
// The ring grows by append up to capacity: a tenant that was only ever
// looked at costs nothing, whatever -retrain-window says.
type window struct {
	buf      []record
	capacity int
	next     int    // oldest entry once the ring is full; 0 before
	seen     uint64 // total ever added, including evicted
	bytes    int64  // Σ record.bytes over buf
}

func newWindow(capacity int) *window { return &window{capacity: capacity} }

func (w *window) add(r record) {
	w.seen++
	w.bytes += r.bytes()
	if len(w.buf) < w.capacity {
		w.buf = append(w.buf, r)
		return
	}
	w.bytes -= w.buf[w.next].bytes()
	w.buf[w.next] = r
	w.next = (w.next + 1) % len(w.buf)
}

func (w *window) len() int { return len(w.buf) }

// snapshot returns the window contents oldest-first. The copy is the
// trainer's working set for one cycle: the window keeps accepting
// feedback while a challenger trains.
func (w *window) snapshot() []record {
	out := make([]record, 0, len(w.buf))
	out = append(out, w.buf[w.next:]...)
	return append(out, w.buf[:w.next]...)
}

// windowHash fingerprints a window snapshot: FNV-1a over each item ID
// and its label bit, plus the count. Identical windows hash identically
// regardless of how they were fed, so the hash seeds the train/holdout
// split and names the challenger version — same window, same split,
// same version string.
func windowHash(recs []record) uint64 {
	h := fnv.New64a()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(recs)))
	h.Write(n[:])
	for i := range recs {
		h.Write([]byte(recs[i].id))
		if recs[i].fraud {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}
