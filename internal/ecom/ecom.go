// Package ecom defines the domain model shared by every CATS component:
// shops, items, comments, users and orders, plus the dataset container
// that carries ground-truth labels through the experiments.
//
// The fields mirror the public-domain records the paper's data collector
// scrapes (Section IV-A and Listing 2): shop id/name/url, item
// id/name/price/sales volume, and comment records carrying content, an
// anonymized nickname, the platform's userExpValue reliability score,
// the purchase client and a date.
//
// # The canonical encoding and its decoder
//
// Items travel as JSON — request bodies into internal/service, JSONL
// lines into internal/dataset — and almost always in the canonical
// encoding, what json.Marshal of an Item writes: the struct tags' exact
// keys, each at most once per object, in any order and with any JSON
// whitespace; strings with or without escapes; integers as -?digits;
// dates as RFC 3339 strings; null only for an item's comments. Decoder
// reads exactly that in one pass. It is an accelerator for that
// encoding, not a second JSON dialect:
//
//   - Decline changes nothing. On the first byte it does not recognise —
//     an unknown, case-folded or escaped key, a duplicate, any other
//     null, a fraction or exponent, a value out of its field's range, a
//     control byte, invalid UTF-8 or a lone surrogate in a string,
//     anything but whitespace after the value — it reports false, and
//     its caller discards the attempt and hands the same bytes to
//     encoding/json. That stays the only source of error texts and of
//     what an unusual input means (key folding, last duplicate wins,
//     U+FFFD), and the oracle: both callers' Fuzz*Differential targets
//     check that whatever Decoder accepts, encoding/json accepts as the
//     same items. Dates go to time.Time.UnmarshalJSON, as it sends them.
//   - Nothing handed out aliases the input, which belongs to the caller
//     — a pooled request buffer, a scanner's line — and is overwritten
//     once the decode returns. Alias (service) cuts every string from
//     one garbage-collected copy of the body, so a retained item pins
//     its request; Decoder.Line (dataset) copies what it keeps into
//     64 KiB arena blocks shared by consecutive items, and on a projected
//     read keeps of a comment only its content, and that only when the
//     caller asks for the item's Texts.
package ecom

import (
	"fmt"
	"time"
)

// Label is the ground-truth status of an item.
type Label uint8

// Item labels. The paper distinguishes fraud items backed by hard
// evidence (financial-transaction traces) from those labeled by manual
// expert analysis; Table VI reports metrics for both groupings.
const (
	Normal        Label = iota // not an illegally promoted item
	FraudEvidence              // fraud, backed by sufficient evidence
	FraudManual                // fraud, labeled via expert manual analysis
)

// IsFraud reports whether the label marks a fraud item of either kind.
func (l Label) IsFraud() bool { return l == FraudEvidence || l == FraudManual }

// String returns a human-readable label name.
func (l Label) String() string {
	switch l {
	case Normal:
		return "normal"
	case FraudEvidence:
		return "fraud/evidence"
	case FraudManual:
		return "fraud/manual"
	default:
		return fmt.Sprintf("label(%d)", uint8(l))
	}
}

// Client is the purchase channel recorded on a comment (Listing 2's
// "client information"). Fig 12 compares the client distribution of
// fraud and normal items' orders.
type Client uint8

// Purchase clients observed on the simulated platform.
const (
	ClientWeb Client = iota
	ClientAndroid
	ClientIPhone
	ClientWechat
	numClients
)

// NumClients is the number of distinct purchase clients.
const NumClients = int(numClients)

// String returns the client name as it appears in comment records.
func (c Client) String() string {
	switch c {
	case ClientWeb:
		return "Web"
	case ClientAndroid:
		return "Android"
	case ClientIPhone:
		return "iPhone"
	case ClientWechat:
		return "Wechat"
	default:
		return fmt.Sprintf("client(%d)", uint8(c))
	}
}

// Shop is a third-party shop on an e-commerce platform.
type Shop struct {
	ID   string `json:"shop_id"`
	Name string `json:"shop_name"`
	URL  string `json:"shop_url"`
}

// User is an e-commerce account. ExpValue is the platform-computed
// reliability score ("userExpValue", Table VII): minimum 100, and the
// lower the value the less reliable the account.
type User struct {
	ID       string `json:"user_id"`
	Nickname string `json:"nickname"`
	ExpValue int64  `json:"userExpValue"`
}

// Comment is a single public comment on an item, as collected from the
// platform's public pages (Listing 2).
type Comment struct {
	ID      string    `json:"comment_id"`
	ItemID  string    `json:"item_id"`
	Content string    `json:"comment_content"`
	UserID  string    `json:"user_id"`
	Nick    string    `json:"nickname"`
	ExpVal  int64     `json:"userExpValue"`
	Client  Client    `json:"client_information"`
	Date    time.Time `json:"date"`
}

// Categories are the eight third-party item categories CATS was
// deployed on at Taobao (Section VI).
var Categories = []string{
	"men's clothing", "women's clothing", "men's shoes", "women's shoes",
	"computer & office", "phone & accessories", "food & grocery",
	"sports & outdoors",
}

// Item is a single listed item together with its collected comments.
type Item struct {
	ID          string    `json:"item_id"`
	ShopID      string    `json:"shop_id"`
	Name        string    `json:"item_name"`
	Category    string    `json:"category,omitempty"`
	PriceCents  int64     `json:"price_cents"`
	SalesVolume int       `json:"sales_volume"`
	Comments    []Comment `json:"comments"`

	// Label is ground truth where known (labeled datasets and the
	// synthetic generator); it is never consulted by the detector.
	Label Label `json:"label"`
}

// Dataset is a labeled collection of items as used throughout the
// paper's evaluation (D0, D1, and the E-platform crawl).
type Dataset struct {
	Name  string
	Items []Item
}

// Stats summarizes a dataset the way Tables IV and V do.
type Stats struct {
	FraudItems    int
	EvidenceFraud int
	ManualFraud   int
	NormalItems   int
	Comments      int
	// RiskyUsers counts distinct users who commented at least one
	// fraud-labeled item; RepeatFraudBuyers those who commented at
	// least two distinct ones (the Table VII funnel). internal/graph
	// reports the same counts from its CSR arrays, so both layers can
	// be cross-checked against each other.
	RiskyUsers        int
	RepeatFraudBuyers int
}

// Stats computes dataset summary counts.
func (d *Dataset) Stats() Stats {
	var s Stats
	fraudItemsByUser := map[string]int{}
	for i := range d.Items {
		it := &d.Items[i]
		switch it.Label {
		case FraudEvidence:
			s.FraudItems++
			s.EvidenceFraud++
		case FraudManual:
			s.FraudItems++
			s.ManualFraud++
		default:
			s.NormalItems++
		}
		s.Comments += len(it.Comments)
		if it.Label.IsFraud() {
			// Distinct commenters only: a user commenting one item
			// twice is one buyer of one item, not a repeat buyer.
			distinct := map[string]bool{}
			for j := range it.Comments {
				uid := it.Comments[j].UserID
				if distinct[uid] {
					continue
				}
				distinct[uid] = true
				switch fraudItemsByUser[uid]++; fraudItemsByUser[uid] {
				case 1:
					s.RiskyUsers++
				case 2:
					s.RepeatFraudBuyers++
				}
			}
		}
	}
	return s
}

// Split partitions the dataset's items by fraud label. The returned
// slices alias the dataset's backing array.
func (d *Dataset) Split() (fraud, normal []*Item) {
	for i := range d.Items {
		if d.Items[i].Label.IsFraud() {
			fraud = append(fraud, &d.Items[i])
		} else {
			normal = append(normal, &d.Items[i])
		}
	}
	return fraud, normal
}

// CommentTexts returns the content strings of all comments of all items.
func (d *Dataset) CommentTexts() []string {
	var out []string
	for i := range d.Items {
		for j := range d.Items[i].Comments {
			out = append(out, d.Items[i].Comments[j].Content)
		}
	}
	return out
}
