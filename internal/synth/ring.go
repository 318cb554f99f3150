package synth

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ecom"
	"repro/internal/textgen"
)

// RingAttack is the seeded colluding-ring attack script: a universe
// whose organized-fraud structure is exactly known, so cluster
// precision/recall is measurable instead of eyeballed. Unlike
// Generate's probabilistic ring sampling, the attack is exhaustive and
// clean-room:
//
//   - every ring member comments every one of its ring's fraud items,
//     so each in-ring user pair shares ItemsPerRing fraud items;
//   - rings never share users or items, so no cross-ring pair shares
//     anything;
//   - organic dilution buyers on fraud items are drawn WITHOUT
//     replacement — each appears on at most one fraud item and so can
//     never reach a 2-shared-items pair with anyone.
//
// Under the paper's thresholds (2+ shared fraud items) the co-purchase
// components of the result are therefore exactly the planted rings: no
// split, no merge. The recovery test asserts that 1:1 mapping.

// RingConfig sizes a planted-ring universe.
type RingConfig struct {
	// Name is the dataset name; empty means "ring-attack".
	Name string
	// Platform prefixes ids; empty means "ring".
	Platform string
	// Seed fixes the RNG; the same config always yields the same
	// universe.
	Seed int64
	// Rings is the number of planted rings; <= 0 means 12.
	Rings int
	// RingSize is the users per ring; <= 0 means 8.
	RingSize int
	// ItemsPerRing is the fraud items each ring promotes; <= 0 means 6
	// (must be >= 2 for in-ring pairs to qualify).
	ItemsPerRing int
	// DilutionPerItem is how many one-shot organic buyers pad each
	// fraud item; < 0 means 0, default 5.
	DilutionPerItem int
	// NormalItems is the count of organic background items; < 0 means
	// 0, default 40.
	NormalItems int
}

func (c RingConfig) withDefaults() RingConfig {
	if c.Name == "" {
		c.Name = "ring-attack"
	}
	if c.Platform == "" {
		c.Platform = "ring"
	}
	if c.Rings <= 0 {
		c.Rings = 12
	}
	if c.RingSize <= 0 {
		c.RingSize = 8
	}
	if c.ItemsPerRing <= 0 {
		c.ItemsPerRing = 6
	}
	if c.DilutionPerItem == 0 {
		c.DilutionPerItem = 5
	}
	if c.DilutionPerItem < 0 {
		c.DilutionPerItem = 0
	}
	if c.NormalItems == 0 {
		c.NormalItems = 40
	}
	if c.NormalItems < 0 {
		c.NormalItems = 0
	}
	return c
}

// RingUniverse is a planted-ring dataset with its ground truth.
type RingUniverse struct {
	Config  RingConfig
	Dataset ecom.Dataset
	// Rings lists each planted ring's member user ids.
	Rings [][]string
	// UserRing maps a ring member's user id to its ring index.
	UserRing map[string]int
	// ItemRing maps each fraud item's id to the ring that promoted it.
	ItemRing map[string]int
}

// RingAttack builds a planted-ring universe. Deterministic per config.
func RingAttack(cfg RingConfig) *RingUniverse {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := textgen.NewGenerator(textgen.NewBank(), rng)

	u := &RingUniverse{
		Config:   cfg,
		UserRing: map[string]int{},
		ItemRing: map[string]int{},
	}
	u.Dataset.Name = cfg.Name

	// Ring members: low-reputation hired accounts.
	members := make([][]ecom.User, cfg.Rings)
	for r := 0; r < cfg.Rings; r++ {
		ids := make([]string, cfg.RingSize)
		members[r] = make([]ecom.User, cfg.RingSize)
		for k := 0; k < cfg.RingSize; k++ {
			id := fmt.Sprintf("%s-r%03d-m%03d", cfg.Platform, r, k)
			members[r][k] = ecom.User{ID: id, Nickname: gen.Nickname(), ExpValue: riskyExpValue(rng)}
			ids[k] = id
			u.UserRing[id] = r
		}
		u.Rings = append(u.Rings, ids)
	}

	// One-shot dilution buyers, consumed without replacement.
	dilutionSeq := 0
	nextDilution := func() ecom.User {
		id := fmt.Sprintf("%s-d%07d", cfg.Platform, dilutionSeq)
		dilutionSeq++
		return ecom.User{ID: id, Nickname: gen.Nickname(), ExpValue: organicExpValue(rng)}
	}

	// Background organic pool for normal items (free to repeat: normal
	// items are never mined for pairs).
	organic := make([]ecom.User, 64)
	for i := range organic {
		organic[i] = ecom.User{
			ID:       fmt.Sprintf("%s-u%07d", cfg.Platform, i),
			Nickname: gen.Nickname(),
			ExpValue: organicExpValue(rng),
		}
	}

	base := time.Date(2017, 9, 1, 0, 0, 0, 0, time.UTC)
	// An item's comments are appended into a slice allocated at its
	// final length; text.finish then gives them IDs and contents.
	var text commentText
	addComment := func(item *ecom.Item, user ecom.User, style textgen.Style, client ecom.Client) {
		text.content(gen, style)
		item.Comments = append(item.Comments, ecom.Comment{
			UserID: user.ID,
			Nick:   user.Nickname,
			ExpVal: user.ExpValue,
			Client: client,
			Date:   base.Add(time.Duration(rng.Intn(14*24)) * time.Hour),
		})
	}

	itemSeq := 0
	newItem := func(label ecom.Label) ecom.Item {
		item := ecom.Item{
			ID:         fmt.Sprintf("%s-i%09d", cfg.Platform, itemSeq),
			ShopID:     fmt.Sprintf("%s-s%05d", cfg.Platform, itemSeq%7),
			Name:       gen.ItemName(),
			Category:   ecom.Categories[rng.Intn(len(ecom.Categories))],
			PriceCents: 500 + int64(rng.Intn(200000)),
			Label:      label,
		}
		itemSeq++
		return item
	}

	// Fraud items: every ring member comments every ring item, padded
	// by one-shot organic buyers.
	fraudStyle := textgen.FraudStyle()
	normalStyle := textgen.NormalStyle()
	for r := 0; r < cfg.Rings; r++ {
		for m := 0; m < cfg.ItemsPerRing; m++ {
			item := newItem(ecom.FraudEvidence)
			u.ItemRing[item.ID] = r
			item.Comments = newComments(len(members[r]) + cfg.DilutionPerItem)[:0]
			for k := range members[r] {
				addComment(&item, members[r][k], fraudStyle, fraudClient(rng))
			}
			for d := 0; d < cfg.DilutionPerItem; d++ {
				addComment(&item, nextDilution(), normalStyle, organicClient(rng))
			}
			text.finish(item.ID, item.Comments)
			item.SalesVolume = len(item.Comments) + rng.Intn(2*len(item.Comments)+1)
			u.Dataset.Items = append(u.Dataset.Items, item)
		}
	}

	// Organic background: normal items with repeat organic buyers.
	for i := 0; i < cfg.NormalItems; i++ {
		item := newItem(ecom.Normal)
		n := 3 + rng.Intn(6)
		item.Comments = newComments(n)[:0]
		for j := 0; j < n; j++ {
			addComment(&item, organic[rng.Intn(len(organic))], normalStyle, organicClient(rng))
		}
		text.finish(item.ID, item.Comments)
		item.SalesVolume = n + rng.Intn(10*n+1)
		u.Dataset.Items = append(u.Dataset.Items, item)
	}

	// Shuffle so label order carries no information, like Generate.
	rng.Shuffle(len(u.Dataset.Items), func(i, j int) {
		u.Dataset.Items[i], u.Dataset.Items[j] = u.Dataset.Items[j], u.Dataset.Items[i]
	})
	return u
}
