package synth

import (
	"bytes"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ecom"
)

// The generator's output is pinned: every corpus in the repository —
// benchmark requests and stream corpora, training sets, catsgen files,
// RingAttack's graph — is drawn from it, so a change to how it builds
// items must not move a byte. These hashes cover every field of every
// item and comment (dates as UnixNano, nil and empty comment lists told
// apart), and the bytes of a JSONL and a columnar file written from
// Stream. They were recorded before the generator's allocation work;
// a mismatch prints the new value, but update one only when the
// generated population is meant to change.

// benchShape is the benchmark's item shape (2% fraud, normal items at
// 3–18 comments): a 5% low-volume share leaves some items with no
// comments at all.
func benchShape(n int, seed int64) Config {
	fraud := max(1, n/50)
	return Config{
		Name: "bench", Platform: "taobao", Seed: seed,
		FraudEvidence: fraud, Normal: max(1, n-fraud),
		FraudCommentsMin: 8, FraudCommentsMax: 20,
		NormalCommentsMin: 3, NormalCommentsMax: 18,
	}
}

type pinHash struct{ h hash.Hash64 }

func newPinHash() *pinHash { return &pinHash{h: fnv.New64a()} }

func (p *pinHash) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	p.h.Write(b[:])
}

func (p *pinHash) str(s string) {
	p.int(int64(len(s)))
	p.h.Write([]byte(s))
}

func (p *pinHash) bool(v bool) {
	if v {
		p.int(1)
	} else {
		p.int(0)
	}
}

func (p *pinHash) strs(ss []string) {
	p.bool(ss == nil)
	p.int(int64(len(ss)))
	for _, s := range ss {
		p.str(s)
	}
}

func (p *pinHash) items(items []ecom.Item) {
	p.int(int64(len(items)))
	for i := range items {
		it := &items[i]
		p.str(it.ID)
		p.str(it.ShopID)
		p.str(it.Name)
		p.str(it.Category)
		p.int(it.PriceCents)
		p.int(int64(it.SalesVolume))
		p.int(int64(it.Label))
		p.strs(it.Texts)
		p.bool(it.Comments == nil)
		p.int(int64(len(it.Comments)))
		for j := range it.Comments {
			c := &it.Comments[j]
			p.str(c.ID)
			p.str(c.ItemID)
			p.str(c.Content)
			p.str(c.UserID)
			p.str(c.Nick)
			p.int(c.ExpVal)
			p.int(int64(c.Client))
			p.int(c.Date.UnixNano())
		}
	}
}

func (p *pinHash) users(users []ecom.User) {
	p.int(int64(len(users)))
	for _, u := range users {
		p.str(u.ID)
		p.str(u.Nickname)
		p.int(u.ExpValue)
	}
}

func (p *pinHash) sortedKeys(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	p.int(int64(len(keys)))
	for _, k := range keys {
		p.str(k)
		p.int(int64(m[k]))
	}
}

func (p *pinHash) sum() uint64 { return p.h.Sum64() }

func checkPin(t *testing.T, what string, got, want uint64) {
	t.Helper()
	if got != want {
		t.Errorf("%s hash = %#016x, want %#016x", what, got, want)
	}
}

// TestStreamPinned streams the benchmark's shape, retaining every item
// while it writes each to a JSONL and a columnar file (the columnar
// file spans two chunks), then hashes the retained items — so a
// generator that hands emit storage it later overwrites fails here too.
func TestStreamPinned(t *testing.T) {
	cfg := benchShape(3000, 9901)
	var jsonl, col bytes.Buffer
	jw := dataset.NewWriterFormat(&jsonl, dataset.FormatJSONL)
	cw := dataset.NewWriterFormat(&col, dataset.FormatColumnar)
	var items []ecom.Item
	stats, err := Stream(cfg, func(it *ecom.Item) error {
		items = append(items, *it)
		if err := jw.Write(it); err != nil {
			return err
		}
		return cw.Write(it)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	empty := 0
	for i := range items {
		if len(items[i].Comments) == 0 {
			empty++
		}
	}
	if empty == 0 || stats.Items <= 2048 {
		t.Fatalf("shape no longer covers what the pin is for: %d items without comments, %d items", empty, stats.Items)
	}
	if !bytes.Contains(jsonl.Bytes(), []byte(`"comments":null`)) {
		t.Fatal(`no "comments":null in the JSONL corpus`)
	}
	h := newPinHash()
	h.items(items)
	checkPin(t, "Stream items", h.sum(), 0x2134218df5da080b)
	checkPin(t, "Stream JSONL file", fnvBytes(jsonl.Bytes()), 0xbc1b10ee849296be)
	checkPin(t, "Stream columnar file", fnvBytes(col.Bytes()), 0xa0e055b517af7864)
}

func fnvBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestStreamPinnedShifted covers the cross-platform knobs: jittered
// styles and a platform-specific neutral vocabulary.
func TestStreamPinnedShifted(t *testing.T) {
	cfg := Config{
		Name: "shifted", Platform: "eplat", Seed: 7003,
		FraudEvidence: 40, FraudManual: 10, Normal: 150,
		StyleJitter: 0.12, VocabShift: 0.3,
	}
	items, _ := streamAll(t, cfg)
	h := newPinHash()
	h.items(items)
	checkPin(t, "Stream (jitter, vocab shift) items", h.sum(), 0x72c0c99959de2692)
}

func TestGeneratePinned(t *testing.T) {
	u := Generate(smallConfig())
	h := newPinHash()
	h.items(u.Dataset.Items)
	h.users(u.Users)
	risky := make(map[string]int, len(u.RiskyUserIDs))
	for id := range u.RiskyUserIDs {
		risky[id] = 1
	}
	h.sortedKeys(risky)
	for _, ring := range u.Rings {
		members := make(map[string]int, len(ring))
		for id := range ring {
			members[id] = 1
		}
		h.sortedKeys(members)
	}
	checkPin(t, "Generate", h.sum(), 0x518fce82827f4432)
}

func TestRingAttackPinned(t *testing.T) {
	u := RingAttack(RingConfig{Seed: 5})
	h := newPinHash()
	h.items(u.Dataset.Items)
	for _, ring := range u.Rings {
		h.strs(ring)
	}
	h.sortedKeys(u.UserRing)
	h.sortedKeys(u.ItemRing)
	checkPin(t, "RingAttack", h.sum(), 0x901883fb1d09bd06)
}

func TestCorporaPinned(t *testing.T) {
	texts, labels := PolarCorpus(400, 5)
	h := newPinHash()
	h.strs(texts)
	for _, l := range labels {
		h.int(int64(l))
	}
	checkPin(t, "PolarCorpus", h.sum(), 0xdae357476013103c)

	h = newPinHash()
	h.strs(TrainingCorpus(1000, 6))
	checkPin(t, "TrainingCorpus", h.sum(), 0x9e3a1380ec1acdfb)
}
